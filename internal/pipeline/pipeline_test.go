package pipeline

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mapsynth/internal/compat"
	"mapsynth/internal/conflict"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/extract"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pool"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/stats"
	"mapsynth/internal/synthesis"
	"mapsynth/internal/table"
)

// synthesizeReference is the pre-refactor monolithic pipeline, preserved
// verbatim (modulo plumbing) as the equivalence oracle: one sequential pass,
// greedy synthesis over the whole graph, conflict resolution partition by
// partition. The engine must reproduce its output byte-identically.
func synthesizeReference(cfg Config, tables []*table.Table) []*mapping.Mapping {
	idx := stats.BuildIndex(tables)
	ext := extract.New(idx, cfg.Extract)
	bins, _ := ext.ExtractAll(tables)
	copt := cfg.Compat
	copt.Synonyms = cfg.Synonyms
	copt.DisableNegative = cfg.DisableNegativeSignal
	cands, _ := compat.PrecomputeParallel(context.Background(), bins, pool.New(1))
	g := compat.BuildGraph(cands, copt, 1)
	parts := synthesis.Greedy(g, cfg.Tau)
	conflictOpt := cfg.Conflict
	conflictOpt.Synonyms = cfg.Synonyms
	var mappings []*mapping.Mapping
	nextID := 0
	for _, part := range parts {
		group := make([]*table.BinaryTable, len(part))
		for i, v := range part {
			group[i] = bins[v]
		}
		var m *mapping.Mapping
		switch cfg.Resolution {
		case ResolveGreedy:
			kept, _ := conflict.Resolve(group, conflictOpt)
			if len(kept) == 0 {
				continue
			}
			m = mapping.Build(nextID, kept)
		case ResolveMajority:
			voted := conflict.MajorityVotePairs(group)
			m = mapping.BuildFromPairs(nextID, voted, group)
		default:
			m = mapping.Build(nextID, group)
		}
		nextID++
		if m.Size() < cfg.MinPairs {
			continue
		}
		if cfg.MinDomains > 0 && m.NumDomains() < cfg.MinDomains {
			continue
		}
		mappings = append(mappings, m)
	}
	sortByPopularity(mappings)
	return mappings
}

// encode serializes mappings with the deterministic snapshot codec so
// equivalence checks compare raw bytes.
func encode(t *testing.T, maps []*mapping.Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, maps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// miniCorpus builds a small corpus with two confusable code systems plus a
// dirty table, exercising synthesis and conflict resolution.
func miniCorpus() []*table.Table {
	mk := func(id int, domain string, lefts, rights []string) *table.Table {
		return &table.Table{
			ID: id, Domain: domain,
			Columns: []table.Column{
				{Name: "name", Values: lefts},
				{Name: "code", Values: rights},
			},
		}
	}
	lefts := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	codesA := []string{"A1", "B2", "C3", "D4", "E5", "F6"}
	codesB := []string{"A1", "B2", "X3", "Y4", "Z5", "W6"}
	var tables []*table.Table
	id := 0
	for i := 0; i < 6; i++ {
		tables = append(tables, mk(id, domainOf(i), lefts, codesA))
		id++
	}
	for i := 0; i < 6; i++ {
		tables = append(tables, mk(id, domainOf(i+3), lefts, codesB))
		id++
	}
	dirty := []string{"A1", "B2", "D4", "C3", "E5", "F6"}
	tables = append(tables, mk(id, "dirty.com", lefts, dirty))
	return tables
}

func domainOf(i int) string { return string(rune('a'+i%8)) + ".com" }

func miniConfig() Config {
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1 // tiny corpus: skip PMI filtering
	return cfg
}

func TestEngineMatchesReferenceAllStrategies(t *testing.T) {
	tables := miniCorpus()
	for _, strat := range []ResolutionStrategy{ResolveGreedy, ResolveMajority, ResolveNone} {
		for _, workers := range []int{1, 4} {
			cfg := miniConfig()
			cfg.Resolution = strat
			cfg.Workers = workers
			res, err := New(cfg).Run(context.Background(), tables)
			if err != nil {
				t.Fatalf("strategy %v workers %d: %v", strat, workers, err)
			}
			want := encode(t, synthesizeReference(cfg, tables))
			got := encode(t, res.Mappings)
			if !bytes.Equal(got, want) {
				t.Errorf("strategy %v workers %d: engine output differs from monolithic reference",
					strat, workers)
			}
		}
	}
}

// TestEngineMatchesReferenceSeedCorpus is the acceptance equivalence test:
// the parallel per-component path must be byte-identical to the sequential
// monolithic path on the full generated seed corpus.
func TestEngineMatchesReferenceSeedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full seed corpus")
	}
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42})
	cfg := DefaultConfig()
	cfg.MinDomains = 2
	want := encode(t, synthesizeReference(cfg, corpus.Tables))
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		res, err := New(cfg).Run(context.Background(), corpus.Tables)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got := encode(t, res.Mappings); !bytes.Equal(got, want) {
			t.Errorf("workers %d: parallel output differs from sequential reference", workers)
		}
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(miniConfig()).Run(ctx, miniCorpus())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run must return a nil result")
	}
}

func TestRunCancellationMidRunNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tables := miniCorpus()
	cfg := miniConfig()
	cfg.Workers = 4
	e := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the graph stage starts, mid-pipeline.
	e.SetInstrumentation(Instrumentation{
		OnStageStart: func(name string, items int) {
			if name == "graph" {
				cancel()
			}
		},
	})
	t0 := time.Now()
	res, err := e.Run(ctx, tables)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (res=%v)", err, res)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestInstrumentationAndStageStats(t *testing.T) {
	cfg := miniConfig()
	cfg.Workers = 3
	e := New(cfg)
	var started []string
	var ended []string
	e.SetInstrumentation(Instrumentation{
		OnStageStart: func(name string, items int) { started = append(started, name) },
		OnStageEnd:   func(st StageStats) { ended = append(ended, st.Name) },
	})
	res, err := e.Run(context.Background(), miniCorpus())
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"index", "extract", "graph", "partition", "resolve"}
	if len(started) != len(wantOrder) || len(ended) != len(wantOrder) {
		t.Fatalf("hooks fired %d/%d times, want %d", len(started), len(ended), len(wantOrder))
	}
	if len(res.Stages) != len(wantOrder) {
		t.Fatalf("Stages = %d entries, want %d", len(res.Stages), len(wantOrder))
	}
	for i, name := range wantOrder {
		if started[i] != name || ended[i] != name || res.Stages[i].Name != name {
			t.Errorf("stage %d: start=%q end=%q stats=%q, want %q",
				i, started[i], ended[i], res.Stages[i].Name, name)
		}
		st := res.Stages[i]
		if st.Duration <= 0 {
			t.Errorf("stage %q: non-positive duration %v", name, st.Duration)
		}
		if st.PeakWorkers < 1 || st.PeakWorkers > cfg.Workers {
			t.Errorf("stage %q: PeakWorkers = %d, want in [1, %d]", name, st.PeakWorkers, cfg.Workers)
		}
	}
	ext := res.Stages[1]
	if ext.Items != len(miniCorpus()) {
		t.Errorf("extract Items = %d, want %d tables", ext.Items, len(miniCorpus()))
	}
	if ext.Produced != res.Candidates {
		t.Errorf("extract Produced = %d, want Candidates = %d", ext.Produced, res.Candidates)
	}
	if res.Stages[4].Produced != len(res.Mappings) {
		t.Errorf("resolve Produced = %d, want %d mappings", res.Stages[4].Produced, len(res.Mappings))
	}
	// Every component yields at least one partition, so 1 <= Components <=
	// Partitions on a non-empty corpus.
	if res.Components < 1 || res.Components > res.Partitions {
		t.Errorf("components = %d, want in [1, %d partitions]", res.Components, res.Partitions)
	}
	tm := res.Timings
	if tm.Total <= 0 || tm.Index <= 0 || tm.Extract <= 0 || tm.Graph <= 0 ||
		tm.Partition <= 0 || tm.Resolve <= 0 {
		t.Errorf("timings not populated: %+v", tm)
	}
}

func TestWorkersBoundHonored(t *testing.T) {
	cfg := miniConfig()
	cfg.Workers = 2
	e := New(cfg)
	res, err := e.Run(context.Background(), miniCorpus())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if st.PeakWorkers > 2 {
			t.Errorf("stage %q exceeded worker bound: peak %d > 2", st.Name, st.PeakWorkers)
		}
	}
}
