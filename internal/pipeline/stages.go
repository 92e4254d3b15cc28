package pipeline

import (
	"context"
	"sort"

	"mapsynth/internal/compat"
	"mapsynth/internal/conflict"
	"mapsynth/internal/extract"
	"mapsynth/internal/graph"
	"mapsynth/internal/mapping"
	"mapsynth/internal/stats"
	"mapsynth/internal/synthesis"
	"mapsynth/internal/table"
)

// extractOut is the extract stage's typed output.
type extractOut struct {
	bins  []*table.BinaryTable
	stats extract.Stats
}

// graphOut is the graph stage's typed output.
type graphOut struct {
	g        *graph.Graph
	blocking compat.BlockStats
}

// partitionOut is the partition stage's typed output. The graph itself is
// deliberately not carried forward: resolve only needs the partitions, and
// dropping the reference lets the largest allocation of the run be
// collected once partitioning completes.
type partitionOut struct {
	// parts is every greedy partition, sorted by smallest member. A part
	// replayed from the cache arrives resolved (kept non-nil).
	parts []*partResult
	// comps holds each component's result, and keys their cache keys
	// (nil without a cache).
	comps []*componentResult
	keys  []string
}

// resolveOut is the resolve stage's typed output.
type resolveOut struct {
	mappings      []*mapping.Mapping
	tablesRemoved int
}

// indexStage builds the corpus co-occurrence index used by coherence
// filtering, or with a state appends the tables it has not seen to the
// state's index. Either is a single sequential pass.
func (e *Engine) indexStage(inc *IncrementalState) Stage[[]*table.Table, *stats.CooccurrenceIndex] {
	return Stage[[]*table.Table, *stats.CooccurrenceIndex]{
		Name:  "index",
		Items: func(ts []*table.Table) int { return len(ts) },
		Run: func(ctx context.Context, ts []*table.Table) (*stats.CooccurrenceIndex, error) {
			if inc == nil {
				return stats.BuildIndex(ts), nil
			}
			return inc.index(ts), nil
		},
	}
}

// extractStage runs candidate extraction (Algorithm 1) fanned out per table
// over the shared pool; candidate IDs are reassigned densely in table order
// so output matches a sequential pass.
func (e *Engine) extractStage(idx *stats.CooccurrenceIndex) Stage[[]*table.Table, extractOut] {
	return Stage[[]*table.Table, extractOut]{
		Name:  "extract",
		Items: func(ts []*table.Table) int { return len(ts) },
		Count: func(o extractOut) int { return len(o.bins) },
		Run: func(ctx context.Context, ts []*table.Table) (extractOut, error) {
			ext := extract.New(idx, e.cfg.Extract)
			bins, est, err := ext.ExtractAllParallel(ctx, ts, e.pool)
			return extractOut{bins: bins, stats: est}, err
		},
	}
}

// graphStage interns the candidates' normalized views and builds the
// compatibility graph, both on the shared pool: blocking and w+ scoring run
// fused, one work item per candidate row, then a second pass per row
// scores w- inside positive components only.
func (e *Engine) graphStage() Stage[extractOut, graphOut] {
	return Stage[extractOut, graphOut]{
		Name:  "graph",
		Items: func(in extractOut) int { return len(in.bins) },
		Count: func(o graphOut) int { return o.g.NumEdges() },
		Run: func(ctx context.Context, in extractOut) (graphOut, error) {
			copt := e.cfg.Compat
			copt.Synonyms = e.cfg.Synonyms
			copt.DisableNegative = e.cfg.DisableNegativeSignal
			cands, err := compat.PrecomputeParallel(ctx, in.bins, e.pool)
			if err != nil {
				return graphOut{}, err
			}
			g, blocking, err := compat.BuildGraphCtx(ctx, cands, copt, e.pool)
			if err != nil {
				return graphOut{}, err
			}
			return graphOut{g: g, blocking: blocking}, nil
		},
	}
}

// partitionStage decomposes the compatibility graph into connected
// components and runs greedy synthesis (Algorithm 3) per component in
// parallel. The graph stage emits only edges inside a positive component
// (w+ > 0 connectivity), so these are the positive components of Appendix
// F's divide and conquer. No edge crosses them, greedy merges only along
// w+ and breaks ties by positive adjacency, which makes the concatenated,
// re-sorted result identical to a monolithic greedy pass over the graph
// with every negative edge scored. With a cache, each component is keyed
// first, and a hit keeps its cached partitions instead of running greedy.
func (e *Engine) partitionStage(bins []*table.BinaryTable, cache *IncrementalState) Stage[graphOut, partitionOut] {
	return Stage[graphOut, partitionOut]{
		Name:  "partition",
		Items: func(in graphOut) int { return in.g.NumVertices() },
		Count: func(o partitionOut) int { return len(o.parts) },
		Run: func(ctx context.Context, in graphOut) (partitionOut, error) {
			comps := in.g.Decompose()
			out := partitionOut{comps: make([]*componentResult, len(comps))}
			if cache != nil {
				var err error
				if out.keys, err = cache.lookup(ctx, e.pool, e.cacheConfigSignature(), comps, bins, out.comps); err != nil {
					return partitionOut{}, err
				}
			}
			if err := e.pool.ForEach(ctx, len(comps), func(i int) {
				if out.comps[i] != nil {
					return // replayed from the cache
				}
				sp, _ := synthesis.GreedyComponent(ctx, comps[i], e.cfg.Tau)
				cr := &componentResult{parts: make([]partResult, len(sp))}
				for pi, members := range sp {
					cr.parts[pi].members = members
				}
				out.comps[i] = cr
			}); err != nil {
				return partitionOut{}, err
			}
			for _, cr := range out.comps {
				for pi := range cr.parts {
					out.parts = append(out.parts, &cr.parts[pi])
				}
			}
			sort.Slice(out.parts, func(i, j int) bool { return out.parts[i].members[0] < out.parts[j].members[0] })
			return out, nil
		},
	}
}

// resolveStage runs conflict resolution (Algorithm 4 or majority voting)
// per partition in parallel, unless the cache already resolved it, and
// builds each partition's mapping with its partition index as provisional
// ID. It then assigns mapping IDs sequentially in partition order, applies
// the curation filters, and sorts by popularity. The sequential ID pass
// replicates the monolithic loop exactly: partitions emptied by greedy
// resolution consume no ID, while partitions dropped by the
// MinPairs/MinDomains filters do.
func (e *Engine) resolveStage(bins []*table.BinaryTable) Stage[partitionOut, resolveOut] {
	return Stage[partitionOut, resolveOut]{
		Name:  "resolve",
		Items: func(in partitionOut) int { return len(in.parts) },
		Count: func(o resolveOut) int { return len(o.mappings) },
		Run: func(ctx context.Context, in partitionOut) (resolveOut, error) {
			conflictOpt := e.cfg.Conflict
			conflictOpt.Synonyms = e.cfg.Synonyms
			built := make([]*mapping.Mapping, len(in.parts)) // nil: emptied by resolution
			if err := e.pool.ForEach(ctx, len(in.parts), func(pi int) {
				p := in.parts[pi]
				group := make([]*table.BinaryTable, len(p.members))
				for i, v := range p.members {
					group[i] = bins[v]
				}
				if p.kept == nil {
					p.kept, p.removed = e.resolve(group, conflictOpt)
				}
				if len(p.kept) == 0 {
					return
				}
				// kept is an ordered subsequence of group: equal length
				// means all of it.
				kept := group
				if len(p.kept) < len(group) {
					kept = make([]*table.BinaryTable, len(p.kept))
					for j, i := range p.kept {
						kept[j] = group[i]
					}
				}
				if e.cfg.Resolution == ResolveMajority {
					built[pi] = mapping.BuildFromPairs(pi, conflict.MajorityVotePairs(kept), kept)
				} else {
					built[pi] = mapping.Build(pi, kept)
				}
			}); err != nil {
				return resolveOut{}, err
			}
			var out resolveOut
			nextID := 0
			for pi, m := range built {
				out.tablesRemoved += in.parts[pi].removed
				if m == nil {
					continue
				}
				m.ID = nextID
				nextID++
				if m.Size() < e.cfg.MinPairs {
					continue
				}
				if e.cfg.MinDomains > 0 && m.NumDomains() < e.cfg.MinDomains {
					continue
				}
				out.mappings = append(out.mappings, m)
			}
			sortByPopularity(out.mappings)
			return out, nil
		},
	}
}

// resolve runs the configured strategy's table selection over one
// partition: the indices of the candidates it keeps, ascending and never
// nil, and how many it drops. Only Algorithm 4 drops tables; majority
// voting filters pairs when the mapping is built, and ResolveNone keeps
// everything.
func (e *Engine) resolve(group []*table.BinaryTable, opt conflict.Options) (kept []int, removed int) {
	kept = make([]int, 0, len(group))
	if e.cfg.Resolution != ResolveGreedy {
		for i := range group {
			kept = append(kept, i)
		}
		return kept, 0
	}
	survivors, dropped := conflict.Resolve(group, opt)
	// survivors is an ordered subsequence of group.
	for i := 0; len(kept) < len(survivors); i++ {
		if group[i] == survivors[len(kept)] {
			kept = append(kept, i)
		}
	}
	return kept, len(dropped)
}
