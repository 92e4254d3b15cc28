package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"

	"mapsynth/internal/graph"
	"mapsynth/internal/pool"
	"mapsynth/internal/stats"
	"mapsynth/internal/table"
)

// RunIncremental is Run with a cache: the same five stages, the same pool,
// the same ID walk. What the state changes follows the data dependencies
// exactly, so the answer never changes:
//
//   - The co-occurrence index appends the new tables instead of being
//     rebuilt (stats.Append is exactly equivalent to a full rebuild because
//     column IDs are dense in table order).
//   - Extraction and the graph re-run globally every time: NPMI coherence
//     depends on the global column count N, so any new table can flip a
//     borderline candidate anywhere in the corpus.
//   - Greedy synthesis and conflict resolution are cached per positive
//     component, keyed by a content hash of the component's candidates, its
//     edges with their weights, and every option greedy and resolution
//     read. A component untouched by new tables hashes identically and
//     replays its partitions and kept tables; the rest recompute. Greedy is
//     a pure function of the component's edge set (the merge heap is totally
//     ordered) and every resolution strategy a pure function of the
//     partition's candidates, so a hit reproduces the fresh computation.
//
// The cache holds candidate ids and indices, never a mapping: every run
// builds its mappings afresh in the resolve stage, which also applies IDs,
// curation filters and the popularity sort. Tests pin the output
// byte-identical to Run over the same tables.

// IncrementalState carries the reusable artifacts of an incremental
// synthesis sequence: the appendable co-occurrence index and the
// per-component result cache. The cache holds no *mapping.Mapping, so the
// mappings of every result are its caller's own. A state is not safe for
// concurrent use; the ingestion layer serializes runs per corpus. The
// tables slice passed to successive RunIncremental calls must be
// append-only — previously seen prefixes must be identical.
type IncrementalState struct {
	idx      *stats.CooccurrenceIndex
	nIndexed int

	// cache maps component keys to results. Each result records the last
	// run that used it, and every run evicts the results unused for two
	// consecutive runs, bounding the cache at roughly twice the live
	// component count.
	cache map[string]*componentResult
	runs  int

	// hits/misses describe the most recent run.
	hits, misses int
}

// NewIncrementalState returns an empty state: the first RunIncremental
// through it is a full build that seeds the index and cache.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{cache: make(map[string]*componentResult)}
}

// CacheStats reports the last run's component cache performance: cache hits
// (components replayed), misses (components recomputed), and the number of
// entries currently retained.
func (s *IncrementalState) CacheStats() (hits, misses, entries int) {
	return s.hits, s.misses, len(s.cache)
}

// componentResult is everything synthesis derives from one positive
// component: its greedy partitions, each with its resolution outcome.
type componentResult struct {
	parts []partResult
	used  int // the last run that used this result
}

// partResult is one greedy partition and what conflict resolution made of
// it.
type partResult struct {
	members []int // candidate ids, ascending
	removed int   // candidates resolution dropped
	kept    []int // indices into members of the candidates kept; nil until resolved
}

// RunIncremental executes the pipeline over tables, reusing inc's index and
// component cache. The result is byte-identical to Run(ctx, tables); only
// the work is different. A nil inc is Run. With an external synonym feed
// the cache is bypassed, because the feed is mutable and no key can vouch
// for it, but the index still appends.
func (e *Engine) RunIncremental(ctx context.Context, tables []*table.Table, inc *IncrementalState) (*Result, error) {
	return e.run(ctx, tables, inc)
}

// index returns the co-occurrence index over ts, appending only the tables
// the state has not seen, on p.
func (s *IncrementalState) index(ctx context.Context, ts []*table.Table, p *pool.Pool) (*stats.CooccurrenceIndex, error) {
	if s.idx == nil || s.nIndexed > len(ts) {
		s.idx, s.nIndexed = stats.NewIndex(), 0
	}
	if err := s.idx.Append(ctx, ts[s.nIndexed:], p); err != nil {
		return nil, err
	}
	s.nIndexed = len(ts)
	return s.idx, nil
}

// lookup keys every component on the pool, fills found[i] with component
// i's cached result where the cache holds one, and returns the keys.
func (s *IncrementalState) lookup(ctx context.Context, p *pool.Pool, cfgSig []byte, comps []graph.Component, bins []*table.BinaryTable, found []*componentResult) ([]string, error) {
	keys := make([]string, len(comps))
	if err := p.ForEach(ctx, len(comps), func(i int) {
		keys[i] = componentKey(cfgSig, comps[i], bins)
	}); err != nil {
		return nil, err
	}
	s.runs++
	for i, k := range keys {
		if found[i] = s.cache[k]; found[i] != nil {
			s.hits++
		} else {
			s.misses++
		}
	}
	return keys, nil
}

// commit stores a finished run's component results under their keys and
// evicts every result unused for two consecutive runs.
func (s *IncrementalState) commit(keys []string, results []*componentResult) {
	for i, cr := range results {
		cr.used = s.runs
		s.cache[keys[i]] = cr
	}
	for k, cr := range s.cache {
		if cr.used < s.runs-1 {
			delete(s.cache, k)
		}
	}
}

// cacheConfigSignature folds every configuration knob that influences a
// component's greedy/resolution outcome into the cache key, so a state
// reused across reconfigured engines can never replay stale results.
func (e *Engine) cacheConfigSignature() []byte {
	var sig [4 * 8]byte
	binary.LittleEndian.PutUint64(sig[0:], math.Float64bits(e.cfg.Tau))
	binary.LittleEndian.PutUint64(sig[8:], math.Float64bits(e.cfg.Conflict.FracEd))
	binary.LittleEndian.PutUint64(sig[16:], uint64(e.cfg.Conflict.KEd))
	binary.LittleEndian.PutUint64(sig[24:], uint64(e.cfg.Resolution))
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
