package apps

import (
	"strconv"
	"strings"
	"sync"

	"mapsynth/internal/index"
)

// A multi-query Session call is the bulk counterpart of a single-query one:
// a client filling a whole spreadsheet issues one call over many columns
// instead of one call per column. Results are element-wise identical to
// issuing the single-column calls sequentially — batching only changes
// *how* the work runs:
//
//   - per-column work is spread across the Session's worker pool, so a
//     batch uses every core instead of one;
//   - index lookups are deduplicated within the call (cachedIndex):
//     identical (column, parameters) queries share a single LookupLeft /
//     MixedColumnHits scan, which is the dominant cost per column.
//     Spreadsheet workloads repeat columns often (copies of sheets,
//     repeated key columns), so this amortization is a real win, not a
//     micro-optimization.

// AutoFillQuery is one auto-fill column query.
type AutoFillQuery struct {
	Column   []string
	Examples []Example
	// MinCoverage is the minimum fraction of column values the mapping's
	// left column must contain.
	MinCoverage float64
	// TopK, when > 0, additionally collects the results of the best K
	// qualifying mappings into the result's Candidates.
	TopK int
}

// AutoCorrectQuery is one auto-correct column query.
type AutoCorrectQuery struct {
	Column []string
	// MinEach is the minimum number of values required on each side before
	// the mix is trusted (guards against coincidental overlaps).
	MinEach int
	// MinCoverage is the minimum fraction of column values the mapping
	// must explain.
	MinCoverage float64
	// TopK, when > 0, additionally collects the results of the best K
	// qualifying mappings into the result's Candidates.
	TopK int
}

// AutoJoinQuery is one key-column-pair join query.
type AutoJoinQuery struct {
	KeysA, KeysB []string
	// MinCoverage applies to A's column against the mapping's left side.
	MinCoverage float64
	// TopK, when > 0, additionally collects the results of the best K
	// bridging mappings into the result's Candidates.
	TopK int
}

// lookupIndex is the containment-lookup surface the applications run on:
// the session's *index.MappingIndex, the dedup wrapper below, or a test's
// counting fake. Every implementation answers with the same globally
// ordered hit list.
type lookupIndex interface {
	LookupLeft(values []string, minCoverage float64) []index.Hit
	MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit
}

// cachedIndex wraps a lookupIndex so that repeated identical queries cost
// one underlying scan. It is what gives a multi-query call, and every call
// on a Stream session, its lookup amortization. Safe for concurrent use;
// each distinct query computes exactly once even under concurrent access.
// The cache only grows, so a cachedIndex is meant to live for one call or
// one stream, not for a process lifetime (the serving layer has its own
// bounded LRU for that).
type cachedIndex struct {
	ix lookupIndex
	mu sync.Mutex
	m  map[string]*lookupEntry
}

type lookupEntry struct {
	once sync.Once
	hits []index.Hit
}

// newCachedIndex returns an empty cache over ix.
func newCachedIndex(ix lookupIndex) *cachedIndex {
	return &cachedIndex{ix: ix, m: make(map[string]*lookupEntry)}
}

// LookupLeft answers exactly like the wrapped index, computing each
// distinct (values, minCoverage) query once. The returned hit slice is
// shared between identical queries and must be treated as read-only —
// which all application helpers do.
func (c *cachedIndex) LookupLeft(values []string, minCoverage float64) []index.Hit {
	return c.hits(queryKey('L', values, 0, minCoverage), func() []index.Hit {
		return c.ix.LookupLeft(values, minCoverage)
	})
}

// MixedColumnHits answers exactly like the wrapped index, computing each
// distinct (values, minEach, minCoverage) query once.
func (c *cachedIndex) MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit {
	return c.hits(queryKey('M', values, minEach, minCoverage), func() []index.Hit {
		return c.ix.MixedColumnHits(values, minEach, minCoverage)
	})
}

func (c *cachedIndex) hits(key string, compute func() []index.Hit) []index.Hit {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &lookupEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.hits = compute() })
	return e.hits
}

// queryKey builds an injective cache key: a tag byte separating the two
// lookup kinds, the parameters, then each value length-prefixed. The
// length prefixes make the encoding unambiguous for arbitrary byte
// content — no separator to collide with.
func queryKey(tag byte, values []string, minEach int, minCoverage float64) string {
	var b strings.Builder
	b.WriteByte(tag)
	b.WriteString(strconv.Itoa(minEach))
	b.WriteByte(':')
	b.WriteString(strconv.FormatFloat(minCoverage, 'g', -1, 64))
	for _, v := range values {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}
