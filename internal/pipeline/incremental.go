package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"sort"
	"time"

	"mapsynth/internal/conflict"
	"mapsynth/internal/graph"
	"mapsynth/internal/mapping"
	"mapsynth/internal/stats"
	"mapsynth/internal/synthesis"
	"mapsynth/internal/table"
)

// The incremental path makes repeated synthesis over a growing corpus cheap
// without ever changing the answer. Exactness comes first, so the split
// between "recompute" and "reuse" follows the data dependencies precisely:
//
//   - The co-occurrence index is append-only maintained (stats.Append is
//     exactly equivalent to a full rebuild because column IDs are dense in
//     table order).
//   - Extraction re-runs globally every time: NPMI coherence depends on the
//     global column count N, so any new table can flip a borderline
//     candidate anywhere in the corpus. Extraction is a parallel linear
//     scan — cheap relative to synthesis.
//   - Greedy synthesis + conflict resolution are cached per compatibility
//     component, keyed by a content hash of the component's candidate
//     tables and edge weights. Components untouched by new tables hash
//     identically and replay their cached outcome; dirty components
//     recompute. Greedy is a pure function of the component's edge set
//     (the merge heap is totally ordered) and conflict resolution a pure
//     function of the partition's candidates, so a hash hit is guaranteed
//     to reproduce the fresh computation.
//
// Mapping IDs, curation filters and popularity sorting are re-applied from
// scratch on every run, replicating resolveStage exactly — the output is
// byte-identical to Engine.Run over the same tables (pinned by tests).

// IncrementalState carries the reusable artifacts of an incremental
// synthesis sequence: the appendable co-occurrence index and the
// per-component result cache. It is not safe for concurrent use; the
// ingestion layer serializes runs per corpus. The tables slice passed to
// successive RunIncremental calls must be append-only — previously seen
// prefixes must be identical.
type IncrementalState struct {
	idx      *stats.CooccurrenceIndex
	nIndexed int

	// cache is the current generation of component results, prev the one
	// before it. Every run rotates the generations and promotes entries it
	// touches, so results unused for two consecutive runs are evicted —
	// bounding the cache at roughly twice the live component count.
	cache map[string]*componentResult
	prev  map[string]*componentResult

	// hits/misses describe the most recent run.
	hits, misses int
}

// NewIncrementalState returns an empty state: the first RunIncremental
// through it is a full build that seeds the index and cache.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{
		cache: make(map[string]*componentResult),
		prev:  make(map[string]*componentResult),
	}
}

// CacheStats reports the last run's component cache performance: cache hits
// (components replayed), misses (components recomputed), and the number of
// entries currently retained.
func (s *IncrementalState) CacheStats() (hits, misses, entries int) {
	return s.hits, s.misses, len(s.cache) + len(s.prev)
}

// componentResult is everything synthesis derives from one compatibility
// component, in component-relative (dense) vertex ids so it is position
// independent: the greedy partitions, and per partition the conflict
// resolution outcome (skip-all, number of removed tables, and the indices
// of the kept candidates within the partition).
type componentResult struct {
	parts   [][]int
	skip    []bool
	removed []int
	keptIdx [][]int
}

// RunIncremental executes the pipeline over tables, reusing inc's index and
// component cache. The result is byte-identical to Run(ctx, tables); only
// the work is different. Configurations the cache cannot faithfully key
// (non-greedy resolution, an external synonym feed) fall back to Run.
func (e *Engine) RunIncremental(ctx context.Context, tables []*table.Table, inc *IncrementalState) (*Result, error) {
	if inc == nil || e.cfg.Resolution != ResolveGreedy || e.cfg.Synonyms != nil {
		return e.Run(ctx, tables)
	}
	res := &Result{}
	start := time.Now()

	idx, err := runStage(ctx, e, res, Stage[[]*table.Table, *stats.CooccurrenceIndex]{
		Name:  "index",
		Items: func(ts []*table.Table) int { return len(ts) },
		Run: func(ctx context.Context, ts []*table.Table) (*stats.CooccurrenceIndex, error) {
			if inc.idx == nil || inc.nIndexed > len(ts) {
				inc.idx = stats.BuildIndex(ts)
			} else {
				inc.idx.Append(ts[inc.nIndexed:])
			}
			inc.nIndexed = len(ts)
			return inc.idx, nil
		},
	}, tables)
	if err != nil {
		return nil, err
	}
	res.Timings.Index = lastStage(res).Duration

	bins, err := runStage(ctx, e, res, e.extractStage(idx), tables)
	if err != nil {
		return nil, err
	}
	res.ExtractStats = bins.stats
	res.Candidates = len(bins.bins)
	res.Timings.Extract = lastStage(res).Duration

	gr, err := runStage(ctx, e, res, e.graphStage(), bins)
	if err != nil {
		return nil, err
	}
	res.Edges = gr.g.NumEdges()
	res.Blocking = gr.blocking
	res.Timings.Graph = lastStage(res).Duration

	maps, err := runStage(ctx, e, res, e.cachedSynthesisStage(bins.bins, inc, res), gr)
	if err != nil {
		return nil, err
	}
	res.Mappings = maps.mappings
	res.TablesRemoved = maps.tablesRemoved
	res.Timings.Resolve = lastStage(res).Duration
	res.Timings.Partition = 0 // folded into the cached synthesis stage

	res.Timings.Total = time.Since(start)
	return res, nil
}

// cachedSynthesisStage fuses partition + resolve with the component cache:
// decompose, hash each component, replay hits, recompute misses on the
// pool, then assemble IDs/filters/sort exactly as resolveStage does.
func (e *Engine) cachedSynthesisStage(bins []*table.BinaryTable, inc *IncrementalState, res *Result) Stage[graphOut, resolveOut] {
	return Stage[graphOut, resolveOut]{
		Name:  "synthesize",
		Items: func(in graphOut) int { return in.g.NumVertices() },
		Count: func(o resolveOut) int { return len(o.mappings) },
		Run: func(ctx context.Context, in graphOut) (resolveOut, error) {
			conflictOpt := e.cfg.Conflict
			conflictOpt.Synonyms = e.cfg.Synonyms
			cfgSig := e.cacheConfigSignature()

			comps := in.g.Decompose()
			res.Components = len(comps)

			// Hash every component in parallel (distinct indices, no shared
			// writes), then do the cache bookkeeping sequentially.
			keys := make([]string, len(comps))
			if err := e.pool.ForEach(ctx, len(comps), func(i int) {
				if ctx.Err() != nil {
					return
				}
				keys[i] = componentKey(cfgSig, comps[i], bins)
			}); err != nil {
				return resolveOut{}, err
			}

			inc.prev, inc.cache = inc.cache, make(map[string]*componentResult, len(comps))
			results := make([]*componentResult, len(comps))
			var missIdx []int
			inc.hits, inc.misses = 0, 0
			for i, k := range keys {
				cr := inc.prev[k]
				if cr == nil {
					cr = inc.cache[k] // duplicate component content this run
				}
				if cr != nil {
					results[i] = cr
					inc.cache[k] = cr
					inc.hits++
				} else {
					missIdx = append(missIdx, i)
					inc.misses++
				}
			}
			if err := e.pool.ForEach(ctx, len(missIdx), func(mi int) {
				if ctx.Err() != nil {
					return
				}
				i := missIdx[mi]
				results[i] = e.computeComponent(ctx, comps[i], bins, conflictOpt)
			}); err != nil {
				return resolveOut{}, err
			}
			if err := ctx.Err(); err != nil {
				return resolveOut{}, err
			}
			for _, i := range missIdx {
				inc.cache[keys[i]] = results[i]
			}

			// Assemble: the global partition list sorted by smallest member,
			// then the sequential ID walk of resolveStage.
			type partRef struct {
				comp, part int
				first      int // global id of the partition's first (smallest) member
			}
			var refs []partRef
			for ci, cr := range results {
				for pi, dense := range cr.parts {
					refs = append(refs, partRef{comp: ci, part: pi, first: comps[ci].Vertices[dense[0]]})
				}
			}
			sort.Slice(refs, func(i, j int) bool { return refs[i].first < refs[j].first })
			res.Partitions = len(refs)

			var out resolveOut
			nextID := 0
			for pi, ref := range refs {
				cr := results[ref.comp]
				out.tablesRemoved += cr.removed[ref.part]
				if cr.skip[ref.part] {
					continue
				}
				verts := comps[ref.comp].Vertices
				dense := cr.parts[ref.part]
				kept := make([]*table.BinaryTable, len(cr.keptIdx[ref.part]))
				for j, ki := range cr.keptIdx[ref.part] {
					kept[j] = bins[verts[dense[ki]]]
				}
				m := mapping.Build(pi, kept)
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

// computeComponent runs greedy synthesis and per-partition conflict
// resolution for one component, recording the outcome in dense vertex ids.
func (e *Engine) computeComponent(ctx context.Context, c graph.Component, bins []*table.BinaryTable, conflictOpt conflict.Options) *componentResult {
	partsGlobal, _ := synthesis.GreedyComponent(ctx, c, e.cfg.Tau)
	cr := &componentResult{
		parts:   make([][]int, len(partsGlobal)),
		skip:    make([]bool, len(partsGlobal)),
		removed: make([]int, len(partsGlobal)),
		keptIdx: make([][]int, len(partsGlobal)),
	}
	for pi, pg := range partsGlobal {
		dense := make([]int, len(pg))
		group := make([]*table.BinaryTable, len(pg))
		for i, g := range pg {
			dense[i] = sort.SearchInts(c.Vertices, g)
			group[i] = bins[g]
		}
		cr.parts[pi] = dense
		kept, removed := conflict.Resolve(group, conflictOpt)
		cr.removed[pi] = len(removed)
		if len(kept) == 0 {
			cr.skip[pi] = true
			continue
		}
		// kept is an order-preserving subsequence of group; record indices.
		ki := make([]int, 0, len(kept))
		gi := 0
		for _, kb := range kept {
			for group[gi] != kb {
				gi++
			}
			ki = append(ki, gi)
			gi++
		}
		cr.keptIdx[pi] = ki
	}
	return cr
}

// cacheConfigSignature folds every configuration knob that influences a
// component's greedy/conflict outcome into the cache key, so a state reused
// across reconfigured engines can never replay stale results.
func (e *Engine) cacheConfigSignature() []byte {
	var sig [3 * 8]byte
	binary.LittleEndian.PutUint64(sig[0:], math.Float64bits(e.cfg.Tau))
	binary.LittleEndian.PutUint64(sig[8:], math.Float64bits(e.cfg.Conflict.FracEd))
	binary.LittleEndian.PutUint64(sig[16:], uint64(e.cfg.Conflict.KEd))
	return sig[:]
}

// componentKey content-hashes one component: every candidate's identity and
// values (global id included — conflict resolution tie-breaks on it and
// mappings persist it) plus the exact edge set with weights. Any difference
// that could change greedy synthesis or conflict resolution changes the key.
func componentKey(cfgSig []byte, c graph.Component, bins []*table.BinaryTable) string {
	h := sha256.New()
	h.Write(cfgSig)
	var num [8]byte
	wi := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	ws := func(s string) {
		wi(uint64(len(s)))
		io.WriteString(h, s)
	}
	wi(uint64(len(c.Vertices)))
	for _, v := range c.Vertices {
		b := bins[v]
		wi(uint64(v))
		wi(uint64(b.TableID))
		ws(b.Domain)
		ws(b.LeftName)
		ws(b.RightName)
		wi(uint64(len(b.Pairs)))
		for _, p := range b.Pairs {
			ws(p.L)
			ws(p.R)
		}
	}
	edges := c.Sub.Edges()
	wi(uint64(len(edges)))
	for _, ed := range edges {
		wi(uint64(ed.A))
		wi(uint64(ed.B))
		wi(math.Float64bits(ed.Pos))
		wi(math.Float64bits(ed.Neg))
	}
	return string(h.Sum(nil))
}
