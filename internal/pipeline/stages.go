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
	parts      synthesis.Partitioning
	components int
}

// resolveOut is the resolve stage's typed output.
type resolveOut struct {
	mappings      []*mapping.Mapping
	tablesRemoved int
}

// indexStage builds the corpus co-occurrence index used by coherence
// filtering. BuildIndex is a single pass over the corpus and runs
// sequentially.
func (e *Engine) indexStage() Stage[[]*table.Table, *stats.CooccurrenceIndex] {
	return Stage[[]*table.Table, *stats.CooccurrenceIndex]{
		Name:  "index",
		Items: func(ts []*table.Table) int { return len(ts) },
		Run: func(ctx context.Context, ts []*table.Table) (*stats.CooccurrenceIndex, error) {
			return stats.BuildIndex(ts), nil
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
			cands, err := compat.PrecomputeParallel(ctx, in.bins, e.pool)
			if err != nil {
				return graphOut{}, err
			}
			g, blocking, err := compat.BuildGraphCtx(ctx, cands, copt, e.pool)
			if err != nil {
				return graphOut{}, err
			}
			if e.cfg.DisableNegativeSignal {
				g.StripNegative()
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
// with every negative edge scored.
func (e *Engine) partitionStage() Stage[graphOut, partitionOut] {
	return Stage[graphOut, partitionOut]{
		Name:  "partition",
		Items: func(in graphOut) int { return in.g.NumVertices() },
		Count: func(o partitionOut) int { return len(o.parts) },
		Run: func(ctx context.Context, in graphOut) (partitionOut, error) {
			comps := in.g.Decompose()
			perComp := make([]synthesis.Partitioning, len(comps))
			if err := e.pool.ForEach(ctx, len(comps), func(i int) {
				if ctx.Err() != nil {
					return
				}
				perComp[i], _ = synthesis.GreedyComponent(ctx, comps[i], e.cfg.Tau)
			}); err != nil {
				return partitionOut{}, err
			}
			var parts synthesis.Partitioning
			for _, sp := range perComp {
				parts = append(parts, sp...)
			}
			sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
			return partitionOut{parts: parts, components: len(comps)}, nil
		},
	}
}

// partitionOutcome is one partition's resolve result before mapping IDs are
// assigned.
type partitionOutcome struct {
	m       *mapping.Mapping
	removed int
	skip    bool
}

// resolveStage runs conflict resolution (Algorithm 4 or majority voting)
// per partition in parallel, then assigns mapping IDs sequentially in
// partition order, applies the curation filters, and sorts by popularity.
// The sequential ID pass replicates the monolithic loop exactly: partitions
// emptied by greedy resolution consume no ID, while partitions dropped by
// the MinPairs/MinDomains filters do.
func (e *Engine) resolveStage(bins []*table.BinaryTable) Stage[partitionOut, resolveOut] {
	return Stage[partitionOut, resolveOut]{
		Name:  "resolve",
		Items: func(in partitionOut) int { return len(in.parts) },
		Count: func(o resolveOut) int { return len(o.mappings) },
		Run: func(ctx context.Context, in partitionOut) (resolveOut, error) {
			conflictOpt := e.cfg.Conflict
			conflictOpt.Synonyms = e.cfg.Synonyms
			outcomes := make([]partitionOutcome, len(in.parts))
			if err := e.pool.ForEach(ctx, len(in.parts), func(pi int) {
				if ctx.Err() != nil {
					return
				}
				part := in.parts[pi]
				group := make([]*table.BinaryTable, len(part))
				for i, v := range part {
					group[i] = bins[v]
				}
				// Provisional ID = partition index; real IDs are assigned
				// below once the kept/skipped pattern is known globally.
				switch e.cfg.Resolution {
				case ResolveGreedy:
					kept, removed := conflict.Resolve(group, conflictOpt)
					outcomes[pi].removed = len(removed)
					if len(kept) == 0 {
						outcomes[pi].skip = true
						return
					}
					outcomes[pi].m = mapping.Build(pi, kept)
				case ResolveMajority:
					voted := conflict.MajorityVotePairs(group)
					outcomes[pi].m = mapping.BuildFromPairs(pi, voted, group)
				default: // ResolveNone
					outcomes[pi].m = mapping.Build(pi, group)
				}
			}); err != nil {
				return resolveOut{}, err
			}
			var out resolveOut
			nextID := 0
			for _, oc := range outcomes {
				out.tablesRemoved += oc.removed
				if oc.skip {
					continue
				}
				m := oc.m
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
