package apps

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/index"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/pool"
)

// countingIndex wraps a lookupIndex and counts the scans that reach it, so
// tests can observe lookup deduplication.
type countingIndex struct {
	ix           lookupIndex
	lookups      int
	mixedLookups int
}

func (c *countingIndex) LookupLeft(values []string, minCoverage float64) []index.Hit {
	c.lookups++
	return c.ix.LookupLeft(values, minCoverage)
}

func (c *countingIndex) MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit {
	c.mixedLookups++
	return c.ix.MixedColumnHits(values, minEach, minCoverage)
}

func TestAutoFillBatchMatchesSequential(t *testing.T) {
	ix := stateIndex()
	queries := []AutoFillQuery{
		{Column: []string{"San Francisco", "Seattle", "Los Angeles"},
			Examples: []Example{{Left: "San Francisco", Right: "California"}}, MinCoverage: 0.8},
		{Column: []string{"California", "Washington", "Oregon", "Texas"}, MinCoverage: 0.8},
		{Column: []string{"no", "such", "values"}, MinCoverage: 0.8},
		{Column: []string{"San Francisco", "Seattle"},
			Examples: []Example{{Left: "San Francisco", Right: "Nevada"}}, MinCoverage: 0.8},
	}
	got, err := NewSession(ix, WithPool(pool.New(4))).AutoFill(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := autoFillOne(ix, q)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("query %d: batch = %+v, sequential = %+v", i, got[i], want)
		}
	}
}

func TestAutoCorrectBatchMatchesSequential(t *testing.T) {
	ix := stateIndex()
	queries := []AutoCorrectQuery{
		{Column: []string{"California", "Washington", "Oregon", "CA", "WA"}, MinEach: 2, MinCoverage: 0.8},
		{Column: []string{"CA", "WA", "OR", "Texas"}, MinEach: 1, MinCoverage: 0.8},
		{Column: []string{"California", "Washington"}, MinEach: 1, MinCoverage: 0.8},
	}
	got, err := NewSession(ix).AutoCorrect(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := autoCorrectOne(ix, q)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("query %d: batch = %+v, sequential = %+v", i, got[i], want)
		}
	}
}

func TestAutoJoinBatchMatchesSequential(t *testing.T) {
	ix := stateIndex()
	queries := []AutoJoinQuery{
		{KeysA: []string{"California", "Washington", "Oregon", "Texas"},
			KeysB: []string{"TX", "CA", "WA"}, MinCoverage: 0.8},
		{KeysA: []string{"zzz", "yyy"}, KeysB: []string{"a"}, MinCoverage: 0.5},
	}
	got, err := NewSession(ix, WithPool(pool.New(2))).AutoJoin(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := autoJoinOne(ix, q)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("query %d: batch = %+v, sequential = %+v", i, got[i], want)
		}
	}
}

// TestBatchDeduplicatesLookups asserts the amortization contract: identical
// (column, parameters) queries in one batch reach the index once.
func TestBatchDeduplicatesLookups(t *testing.T) {
	cix := &countingIndex{ix: stateIndex()}
	col := []string{"San Francisco", "Seattle", "Los Angeles"}
	queries := make([]AutoFillQuery, 8)
	for i := range queries {
		queries[i] = AutoFillQuery{Column: col, MinCoverage: 0.8}
	}
	// A single worker makes the count deterministic; correctness under
	// concurrency is covered by the sync.Once in the cache plus -race runs.
	sess := &Session{ix: cix, pool: pool.New(1)}
	if _, err := sess.AutoFill(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	if cix.lookups != 1 {
		t.Errorf("lookups = %d, want 1 (8 identical queries share one scan)", cix.lookups)
	}

	// Different parameters must not share.
	queries = append(queries, AutoFillQuery{Column: col, MinCoverage: 0.5})
	cix.lookups = 0
	if _, err := sess.AutoFill(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	if cix.lookups != 2 {
		t.Errorf("lookups = %d, want 2 (two distinct coverages)", cix.lookups)
	}
}

// TestStreamDeduplicatesAcrossCalls pins the cross-call contract the
// server's /batch/* streams rely on: single-query calls on one Stream
// session share index scans, a plain session's single calls do not, and
// every Stream session starts with an empty cache.
func TestStreamDeduplicatesAcrossCalls(t *testing.T) {
	cix := &countingIndex{ix: stateIndex()}
	sess := &Session{ix: cix, pool: pool.New(1)}
	q := []AutoFillQuery{{Column: []string{"San Francisco", "Seattle", "Los Angeles"}, MinCoverage: 0.8}}
	ctx := context.Background()
	fill := func(s *Session, calls int) int {
		t.Helper()
		cix.lookups = 0
		for i := 0; i < calls; i++ {
			if _, err := s.AutoFill(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		return cix.lookups
	}
	if n := fill(sess, 8); n != 8 {
		t.Errorf("plain session: lookups = %d, want 8 (single calls are not cached)", n)
	}
	stream := sess.Stream()
	if n := fill(stream, 8); n != 1 {
		t.Errorf("stream session: lookups = %d, want 1 (8 identical calls share one scan)", n)
	}
	if n := fill(sess.Stream(), 1); n != 1 {
		t.Errorf("second stream session: lookups = %d, want 1 (a new stream starts empty)", n)
	}
	if n := fill(stream, 1); n != 0 {
		t.Errorf("first stream session after another: lookups = %d, want 0 (its cache is its own)", n)
	}
}

// TestQueryKeyInjective pins the cache-key encoding: values containing the
// old separator candidates (NUL, colons, digits) must not collide with
// differently-split columns, or one query would silently receive another's
// hit list.
func TestQueryKeyInjective(t *testing.T) {
	cases := [][2][]string{
		{{"a\x00b"}, {"a", "b"}},
		{{"a:b"}, {"a", "b"}},
		{{"1:a"}, {"a"}},
		{{"ab", ""}, {"a", "b"}},
		{{"a", "bc"}, {"ab", "c"}},
	}
	for _, c := range cases {
		if queryKey('L', c[0], 0, 0.8) == queryKey('L', c[1], 0, 0.8) {
			t.Errorf("queryKey collision between %q and %q", c[0], c[1])
		}
	}
	if queryKey('L', []string{"a"}, 0, 0.8) == queryKey('M', []string{"a"}, 0, 0.8) {
		t.Error("lookup kinds share a key")
	}
	if queryKey('M', []string{"a"}, 1, 0.8) == queryKey('M', []string{"a"}, 2, 0.8) {
		t.Error("minEach not part of the key")
	}
}

// TestCachedIndexParity asserts the caching wrapper answers exactly like
// the wrapped index, including for NUL-carrying values that stress the key
// encoding.
func TestCachedIndexParity(t *testing.T) {
	ix := stateIndex()
	cix := newCachedIndex(ix)
	queries := [][]string{
		{"California", "Washington", "Oregon"},
		{"California", "WA", "OR", "Texas"},
		{"Cal\x00ifornia", "nope"},
	}
	for _, q := range queries {
		for i := 0; i < 2; i++ { // second round answers from the cache
			if got, want := cix.LookupLeft(q, 0.5), ix.LookupLeft(q, 0.5); !reflect.DeepEqual(got, want) {
				t.Errorf("LookupLeft(%q) = %+v, want %+v", q, got, want)
			}
			if got, want := cix.MixedColumnHits(q, 1, 0.5), ix.MixedColumnHits(q, 1, 0.5); !reflect.DeepEqual(got, want) {
				t.Errorf("MixedColumnHits(%q) = %+v, want %+v", q, got, want)
			}
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	ix := stateIndex()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := NewSession(ix).AutoFill(ctx, []AutoFillQuery{{Column: []string{"Seattle"}}}); err == nil || res != nil {
		t.Errorf("cancelled batch = (%v, %v), want nil result and an error", res, err)
	}
	if res, err := NewSession(ix).AutoCorrect(ctx, []AutoCorrectQuery{{Column: []string{"CA"}}}); err == nil || res != nil {
		t.Errorf("cancelled batch = (%v, %v), want nil result and an error", res, err)
	}
	if res, err := NewSession(ix).AutoJoin(ctx, []AutoJoinQuery{{KeysA: []string{"CA"}, KeysB: []string{"x"}}}); err == nil || res != nil {
		t.Errorf("cancelled batch = (%v, %v), want nil result and an error", res, err)
	}
}

// TestBatchGoldenSeedCorpus is the acceptance golden test: over mappings
// synthesized from the seed web corpus, every batch result is element-wise
// identical to the corresponding sequence of single calls, for several
// worker-pool widths.
func TestBatchGoldenSeedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42})
	cfg := pipeline.DefaultConfig()
	cfg.MinDomains = 2
	res, err := pipeline.New(cfg).Run(context.Background(), corpus.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings) == 0 {
		t.Fatal("no mappings synthesized from seed corpus")
	}
	ix := indexOf(res.Mappings...)

	// One auto-fill, auto-correct and auto-join query per mapping, built
	// from the mapping's own pairs so lookups genuinely hit.
	var fills []AutoFillQuery
	var corrects []AutoCorrectQuery
	var joins []AutoJoinQuery
	for _, m := range res.Mappings {
		if len(m.Pairs) < 4 {
			continue
		}
		n := len(m.Pairs)
		if n > 12 {
			n = 12
		}
		ls := make([]string, 0, n)
		rs := make([]string, 0, n)
		for _, p := range m.Pairs[:n] {
			ls = append(ls, p.L)
			rs = append(rs, p.R)
		}
		fills = append(fills, AutoFillQuery{
			Column:      ls,
			Examples:    []Example{{Left: ls[0], Right: rs[0]}},
			MinCoverage: 0.8,
		})
		mixed := append(append([]string{}, ls[:n/2]...), rs[n/2:]...)
		corrects = append(corrects, AutoCorrectQuery{Column: mixed, MinEach: 2, MinCoverage: 0.8})
		joins = append(joins, AutoJoinQuery{KeysA: ls, KeysB: rs, MinCoverage: 0.8})
	}
	if len(fills) == 0 {
		t.Fatal("no usable mappings for batch queries")
	}
	t.Logf("seed corpus: %d mappings, %d queries per app", len(res.Mappings), len(fills))

	for _, workers := range []int{1, 4} {
		p := pool.New(workers)
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gotF, err := NewSession(ix, WithPool(p)).AutoFill(context.Background(), fills)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range fills {
				if want := autoFillOne(ix, q); !reflect.DeepEqual(gotF[i], want) {
					t.Errorf("autofill %d: batch = %+v, sequential = %+v", i, gotF[i], want)
				}
			}
			gotC, err := NewSession(ix, WithPool(p)).AutoCorrect(context.Background(), corrects)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range corrects {
				if want := autoCorrectOne(ix, q); !reflect.DeepEqual(gotC[i], want) {
					t.Errorf("autocorrect %d: batch = %+v, sequential = %+v", i, gotC[i], want)
				}
			}
			gotJ, err := NewSession(ix, WithPool(p)).AutoJoin(context.Background(), joins)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range joins {
				if want := autoJoinOne(ix, q); !reflect.DeepEqual(gotJ[i], want) {
					t.Errorf("autojoin %d: batch = %+v, sequential = %+v", i, gotJ[i], want)
				}
			}
		})
	}
}
