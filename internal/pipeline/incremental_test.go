package pipeline

import (
	"bytes"
	"context"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// snapBytes pins a mapping set's exact serialized form, so "identical"
// below means byte-identical, not merely structurally equal.
func snapBytes(t *testing.T, maps []*mapping.Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, maps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func incrTestCorpus(t *testing.T) []*table.Table {
	t.Helper()
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 11, SampleFraction: 0.25})
	if len(corpus.Tables) < 20 {
		t.Fatalf("test corpus too small: %d tables", len(corpus.Tables))
	}
	return corpus.Tables
}

// TestIncrementalColdParity: a cold-cache RunIncremental is a full build and
// must match Run byte-for-byte, stage for stage.
func TestIncrementalColdParity(t *testing.T) {
	tables := incrTestCorpus(t)
	cfg := DefaultConfig()
	full, err := New(cfg).Run(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(cfg).RunIncremental(context.Background(), tables, NewIncrementalState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, full.Mappings), snapBytes(t, inc.Mappings)) {
		t.Fatal("cold incremental run differs from Run")
	}
	if full.TablesRemoved != inc.TablesRemoved || full.Partitions != inc.Partitions ||
		full.Components != inc.Components || full.Candidates != inc.Candidates {
		t.Fatalf("result stats differ: full %+v vs incremental %+v", full, inc)
	}
	// One path: both entry points report the same stages.
	if len(full.Stages) != len(inc.Stages) {
		t.Fatalf("Run has %d stages, RunIncremental %d", len(full.Stages), len(inc.Stages))
	}
	for i := range full.Stages {
		if full.Stages[i].Name != inc.Stages[i].Name {
			t.Errorf("stage %d: Run %q, RunIncremental %q", i, full.Stages[i].Name, inc.Stages[i].Name)
		}
	}
}

// TestIncrementalIngestParity is the golden tentpole contract: ingesting N
// tables one at a time through the component cache yields mappings
// byte-identical to a from-scratch synthesis of the combined corpus at
// every step.
func TestIncrementalIngestParity(t *testing.T) {
	tables := incrTestCorpus(t)
	const hold = 5 // tables to ingest one-by-one
	base := tables[:len(tables)-hold]

	cfg := DefaultConfig()
	eng := New(cfg)
	state := NewIncrementalState()

	cur := append([]*table.Table(nil), base...)
	if _, err := eng.RunIncremental(context.Background(), cur, state); err != nil {
		t.Fatal(err)
	}
	sawHit := false
	for step := 0; step < hold; step++ {
		cur = append(cur, tables[len(tables)-hold+step])
		got, err := eng.RunIncremental(context.Background(), cur, state)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(cfg).Run(context.Background(), cur)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapBytes(t, got.Mappings), snapBytes(t, want.Mappings)) {
			t.Fatalf("step %d: incremental result differs from full rebuild", step)
		}
		hits, misses, entries := state.CacheStats()
		if hits > 0 {
			sawHit = true
		}
		if entries < hits {
			t.Fatalf("step %d: cache bookkeeping off: hits=%d misses=%d entries=%d", step, hits, misses, entries)
		}
	}
	if !sawHit {
		t.Fatal("component cache never hit across 5 single-table ingests — incrementality is not engaging")
	}
}

// TestIncrementalWorkerIndependence: the cached path must stay deterministic
// for any worker count, like Run.
func TestIncrementalWorkerIndependence(t *testing.T) {
	tables := incrTestCorpus(t)
	var want []byte
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		state := NewIncrementalState()
		eng := New(cfg)
		// Two runs over the same tables: the second is a 100% cache hit and
		// must still reproduce the same bytes.
		if _, err := eng.RunIncremental(context.Background(), tables, state); err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunIncremental(context.Background(), tables, state)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := state.CacheStats(); misses != 0 || hits == 0 {
			t.Fatalf("re-run over identical tables: hits=%d misses=%d, want all hits", hits, misses)
		}
		b := snapBytes(t, res.Mappings)
		if want == nil {
			want = b
		} else if !bytes.Equal(want, b) {
			t.Fatalf("workers=%d produced different bytes", workers)
		}
	}
}

// TestIncrementalSharedAcrossStrategies: one state serves a greedy and a
// majority-voting engine, run alternately over a growing corpus. The
// strategy is part of the cache key, so neither replays the other's kept
// tables: each result equals Run with its own config, and each engine
// still hits the entries of its own previous run, one table earlier.
func TestIncrementalSharedAcrossStrategies(t *testing.T) {
	tables := incrTestCorpus(t)
	greedy, majority := DefaultConfig(), DefaultConfig()
	majority.Resolution = ResolveMajority
	state := NewIncrementalState()
	n := len(tables)
	for _, upto := range []int{n - 2, n - 1, n} {
		cur := tables[:upto]
		for _, cfg := range []Config{greedy, majority} {
			got, err := New(cfg).RunIncremental(context.Background(), cur, state)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(cfg).Run(context.Background(), cur)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Resolution == ResolveGreedy && want.TablesRemoved == 0 {
				t.Fatalf("upto %d: greedy resolution removed no table, so a replay across strategies would go unseen", upto)
			}
			if !bytes.Equal(snapBytes(t, want.Mappings), snapBytes(t, got.Mappings)) || want.TablesRemoved != got.TablesRemoved {
				t.Fatalf("upto %d, resolution %d: incremental result differs from Run", upto, cfg.Resolution)
			}
		}
	}
	if hits, misses, _ := state.CacheStats(); hits == 0 {
		t.Fatalf("last run: hits=%d misses=%d, want hits", hits, misses)
	}
}
