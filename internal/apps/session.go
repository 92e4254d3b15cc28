package apps

import (
	"context"

	"mapsynth/internal/index"
	"mapsynth/internal/pool"
)

// Session is the unified entry point to the mapping applications. One
// Session wraps one lookup index plus execution policy (worker pool,
// parameter defaults); its methods all take a context and a slice of query
// structs — a single call is a one-element slice, a batch is a longer one.
// Identical lookups within one multi-query call share a single index scan.
// The per-query results are element-wise identical to answering each query
// on its own, which is pinned by golden equivalence tests.
//
// A Session is immutable after construction and safe for concurrent use;
// the serving layer keeps one per loaded snapshot state.
type Session struct {
	ix       lookupIndex
	pool     *pool.Pool
	defaults Defaults
	// stream, when set, deduplicates lookups across every call on this
	// session (see Stream) instead of within each call.
	stream *cachedIndex
}

// Defaults fills zero-valued query parameters, so embedders can configure
// service-wide defaults once instead of patching every query. A zero field
// in Defaults leaves the corresponding query field untouched.
type Defaults struct {
	// MinCoverage fills a query's zero MinCoverage.
	MinCoverage float64
	// MinEach fills a zero AutoCorrectQuery.MinEach.
	MinEach int
	// TopK fills a zero TopK.
	TopK int
}

// Option configures a Session at construction.
type Option func(*Session)

// WithPool shares an existing worker pool instead of the Session's own
// GOMAXPROCS-bounded one. A nil pool is ignored.
func WithPool(p *pool.Pool) Option {
	return func(s *Session) {
		if p != nil {
			s.pool = p
		}
	}
}

// WithDefaults installs parameter defaults applied to zero-valued query
// fields.
func WithDefaults(d Defaults) Option {
	return func(s *Session) { s.defaults = d }
}

// NewSession returns a Session answering queries against ix.
func NewSession(ix *index.MappingIndex, opts ...Option) *Session {
	s := &Session{ix: ix}
	for _, o := range opts {
		o(s)
	}
	if s.pool == nil {
		s.pool = pool.New(0)
	}
	return s
}

// Stream returns a session with the same index, pool and defaults whose
// index lookups are deduplicated across every call made on it: a stream of
// single-query calls (one /batch/* request, say) gets the amortization of
// one multi-query call. Its cache only grows, so a stream session is meant
// to live for one such stream; each Stream call starts an empty one.
func (s *Session) Stream() *Session {
	c := *s
	c.stream = newCachedIndex(s.ix)
	return &c
}

// queryIndex picks the lookup surface for one call: a stream session's
// shared cache, else the raw index for single queries and a fresh per-call
// dedup wrapper for multi-query calls.
func (s *Session) queryIndex(n int) lookupIndex {
	switch {
	case s.stream != nil:
		return s.stream
	case n > 1:
		return newCachedIndex(s.ix)
	}
	return s.ix
}

// AutoFill answers every query (Table 4 of the paper), fanning the
// per-query work across the Session's pool. results[i] corresponds to
// queries[i]. On cancellation it returns ctx's error and a nil slice.
func (s *Session) AutoFill(ctx context.Context, queries []AutoFillQuery) ([]AutoFillResult, error) {
	ix := s.queryIndex(len(queries))
	out := make([]AutoFillResult, len(queries))
	err := s.pool.ForEach(ctx, len(queries), func(i int) {
		q := queries[i]
		if q.MinCoverage == 0 {
			q.MinCoverage = s.defaults.MinCoverage
		}
		if q.TopK == 0 {
			q.TopK = s.defaults.TopK
		}
		out[i] = autoFillOne(ix, q)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AutoCorrect answers every query (Table 3 of the paper) with the same
// pooling and dedup policy as AutoFill.
func (s *Session) AutoCorrect(ctx context.Context, queries []AutoCorrectQuery) ([]AutoCorrectResult, error) {
	ix := s.queryIndex(len(queries))
	out := make([]AutoCorrectResult, len(queries))
	err := s.pool.ForEach(ctx, len(queries), func(i int) {
		q := queries[i]
		if q.MinCoverage == 0 {
			q.MinCoverage = s.defaults.MinCoverage
		}
		if q.MinEach == 0 {
			q.MinEach = s.defaults.MinEach
		}
		if q.TopK == 0 {
			q.TopK = s.defaults.TopK
		}
		out[i] = autoCorrectOne(ix, q)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AutoJoin answers every query (Table 5 of the paper). Lookup dedup keys on
// the left key column — the side the index is consulted for — so joining
// one key column against many target tables costs a single index scan.
func (s *Session) AutoJoin(ctx context.Context, queries []AutoJoinQuery) ([]AutoJoinResult, error) {
	ix := s.queryIndex(len(queries))
	out := make([]AutoJoinResult, len(queries))
	err := s.pool.ForEach(ctx, len(queries), func(i int) {
		q := queries[i]
		if q.MinCoverage == 0 {
			q.MinCoverage = s.defaults.MinCoverage
		}
		if q.TopK == 0 {
			q.TopK = s.defaults.TopK
		}
		out[i] = autoJoinOne(ix, q)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lookup answers every single-key query: the best-supported mapped value
// for each key, with provenance of the answering mapping.
func (s *Session) Lookup(ctx context.Context, queries []LookupQuery) ([]LookupResult, error) {
	ix := s.queryIndex(len(queries))
	out := make([]LookupResult, len(queries))
	err := s.pool.ForEach(ctx, len(queries), func(i int) {
		out[i] = lookupOne(ix, queries[i].Key)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
