// Package mapsynth's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (EXPERIMENTS.md maps them), plus
// micro-benchmarks for the hot primitives. Run with:
//
//	go test -bench=. -benchmem
package mapsynth

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"mapsynth/internal/apps"
	"mapsynth/internal/baselines"
	"mapsynth/internal/compat"
	"mapsynth/internal/core"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/experiments"
	"mapsynth/internal/graph"
	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pool"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/stats"
	"mapsynth/internal/strmatch"
	"mapsynth/internal/synthesis"
	"mapsynth/internal/table"
)

var (
	envOnce sync.Once
	env     *experiments.Env
)

// indexOf indexes the mappings the way every caller does: as a v2 image.
func indexOf(maps []*mapping.Mapping) *index.MappingIndex {
	h, err := snapshot.FromMappings(maps)
	if err != nil {
		panic(err)
	}
	return index.FromSource(h)
}

func sharedEnv() *experiments.Env {
	envOnce.Do(func() {
		env = experiments.NewEnv(experiments.DefaultSeed)
	})
	return env
}

// BenchmarkFigure7_Synthesis regenerates the paper's headline number: the
// full Synthesis pipeline over the web corpus (quality is asserted in the
// experiments tests; here we measure end-to-end cost).
func BenchmarkFigure7_Synthesis(b *testing.B) {
	e := sharedEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.New(core.DefaultConfig()).Synthesize(e.Corpus.Tables)
		if len(res.Mappings) == 0 {
			b.Fatal("no mappings")
		}
	}
}

// BenchmarkFigure8 regenerates the runtime comparison: one sub-benchmark per
// method, measuring only the method-specific work over shared artifacts
// (extraction/graph timings are reported by the figure driver itself).
func BenchmarkFigure8(b *testing.B) {
	e := sharedEnv()
	b.Run("Synthesis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.DefaultConfig()).Synthesize(e.Corpus.Tables)
		}
	})
	b.Run("SynthesisPos", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.DisableNegativeSignal = true
		for i := 0; i < b.N; i++ {
			core.New(cfg).Synthesize(e.Corpus.Tables)
		}
	})
	b.Run("WikiTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.SingleTables(e.Bins, corpusgen.WikipediaDomain)
		}
	})
	b.Run("WebTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.SingleTables(e.Bins, "")
		}
	})
	b.Run("UnionDomain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.UnionDomain(e.Bins)
		}
	})
	b.Run("UnionWeb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.UnionWeb(e.Bins)
		}
	})
	b.Run("SchemaCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for th := 0.0; th <= 1.0001; th += 0.1 {
				baselines.SchemaCC(e.Graph, th, true)
			}
		}
	})
	b.Run("Correlation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.Correlation(e.Graph, 42, 0)
		}
	})
	b.Run("WiseIntegrator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.WiseIntegrator(e.Bins)
		}
	})
}

// BenchmarkSynthesizeParallel measures the staged pipeline engine end to end
// at increasing worker-pool widths over the generated web corpus, making the
// speedup from component-parallel partitioning and per-stage fan-out visible
// in the perf trajectory. Output is identical at every width; only the
// wall-clock changes.
func BenchmarkSynthesizeParallel(b *testing.B) {
	e := sharedEnv()
	widths := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		widths = append(widths, p)
	}
	for _, w := range widths {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				res, err := core.New(cfg).SynthesizeContext(context.Background(), e.Corpus.Tables)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Mappings) == 0 {
					b.Fatal("no mappings")
				}
			}
		})
	}
}

// BenchmarkFigure9_Scale regenerates the scalability series: full pipeline
// over sampled corpora.
func BenchmarkFigure9_Scale(b *testing.B) {
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		frac := frac
		b.Run(fmt.Sprintf("input%.0f%%", frac*100), func(b *testing.B) {
			corpus := corpusgen.GenerateWeb(corpusgen.Options{
				Seed: experiments.DefaultSeed, SampleFraction: frac,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.New(core.DefaultConfig()).Synthesize(corpus.Tables)
			}
		})
	}
}

// BenchmarkFigure10_Enterprise regenerates the enterprise pipeline run.
func BenchmarkFigure10_Enterprise(b *testing.B) {
	corpus := corpusgen.GenerateEnterprise(corpusgen.Options{Seed: experiments.DefaultSeed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(core.DefaultConfig()).Synthesize(corpus.Tables)
	}
}

// BenchmarkFigure15_ConflictResolution compares the resolution strategies of
// Section 5.6 (greedy removal vs majority voting vs none).
func BenchmarkFigure15_ConflictResolution(b *testing.B) {
	e := sharedEnv()
	for _, v := range []struct {
		name string
		res  core.ResolutionStrategy
	}{
		{"greedy", core.ResolveGreedy},
		{"majority", core.ResolveMajority},
		{"none", core.ResolveNone},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Resolution = v.res
			for i := 0; i < b.N; i++ {
				core.New(cfg).Synthesize(e.Corpus.Tables)
			}
		})
	}
}

// BenchmarkSensitivityTau regenerates the τ sweep of Section 5.4.
func BenchmarkSensitivityTau(b *testing.B) {
	e := sharedEnv()
	for _, tau := range []float64{-0.05, -0.2, -0.8} {
		tau := tau
		b.Run(fmt.Sprintf("tau%+.2f", tau), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Tau = tau
			for i := 0; i < b.N; i++ {
				core.New(cfg).Synthesize(e.Corpus.Tables)
			}
		})
	}
}

// BenchmarkPartitioners is the trichotomy ablation (Theorem 13): greedy vs
// exact vs min-cut on small graphs.
func BenchmarkPartitioners(b *testing.B) {
	g := graph.New(10)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if (i+j)%3 == 0 {
				g.AddEdge(i, j, float64(i+j)/20, 0)
			}
		}
	}
	g.AddEdge(0, 9, 0, -1)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synthesis.Greedy(g, synthesis.DefaultTau)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synthesis.Exact(g, synthesis.DefaultTau)
		}
	})
	b.Run("mincut", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := synthesis.MinCutSingleNegative(g, synthesis.DefaultTau); !ok {
				b.Fatal("mincut rejected")
			}
		}
	})
}

// BenchmarkEditDistance compares the banded check (Appendix B) against the
// full dynamic program.
func BenchmarkEditDistance(b *testing.B) {
	a := "korea republic of south korea"
	c := "korea republic of north korea"
	b.Run("banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strmatch.WithinDistance(a, c, 5)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strmatch.Distance(a, c)
		}
	})
}

// BenchmarkBlocking measures inverted-index pair blocking over the full
// candidate set.
func BenchmarkBlocking(b *testing.B) {
	e := sharedEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compat.BlockedPairs(e.Cands, 2)
	}
}

// BenchmarkCompatibilityGraph measures full graph construction (weights +
// blocking), the dominant cost of table synthesis.
func BenchmarkCompatibilityGraph(b *testing.B) {
	e := sharedEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compat.BuildGraph(e.Cands, compat.DefaultOptions(), 0)
	}
}

// BenchmarkCoherenceIndex measures co-occurrence index construction.
func BenchmarkCoherenceIndex(b *testing.B) {
	e := sharedEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.BuildIndex(e.Corpus.Tables)
	}
}

// BenchmarkIndexLookup measures bloom-backed containment lookup (the paper's
// "easy to index and efficient to scale" claim for materialized mappings).
func BenchmarkIndexLookup(b *testing.B) {
	maps := make([]*mapping.Mapping, 0, 200)
	for mi := 0; mi < 200; mi++ {
		pairs := make([]table.Pair, 50)
		ls := make([]string, 50)
		rs := make([]string, 50)
		for i := range pairs {
			ls[i] = fmt.Sprintf("left-%d-%d", mi, i)
			rs[i] = fmt.Sprintf("right-%d-%d", mi, i)
		}
		bt := table.NewBinaryTable(mi, mi, "d", "l", "r", ls, rs)
		maps = append(maps, mapping.Build(mi, []*table.BinaryTable{bt}))
	}
	ix := indexOf(maps)
	query := []string{"left-137-1", "left-137-2", "left-137-3", "left-137-4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.LookupLeft(query, 0.9); len(hits) != 1 {
			b.Fatalf("hits = %d", len(hits))
		}
	}
}

// serveBenchMappings builds the synthetic mapping set used by the serving
// benchmarks: 200 mappings of 50 pairs each, matching BenchmarkIndexLookup's
// corpus so index and service numbers are comparable.
func serveBenchMappings() []*mapping.Mapping {
	maps := make([]*mapping.Mapping, 0, 200)
	for mi := 0; mi < 200; mi++ {
		ls := make([]string, 50)
		rs := make([]string, 50)
		for i := range ls {
			ls[i] = fmt.Sprintf("left-%d-%d", mi, i)
			rs[i] = fmt.Sprintf("right-%d-%d", mi, i)
		}
		bt := table.NewBinaryTable(mi, mi, "d", "l", "r", ls, rs)
		maps = append(maps, mapping.Build(mi, []*table.BinaryTable{bt}))
	}
	return maps
}

// BenchmarkServeLookup measures the serving hot path end to end — HTTP
// routing, cache, index, JSON encoding — for the single-key /lookup
// endpoint. Sub-benchmarks separate the cache-hit path (one hot key) from
// the cache-miss path (cache disabled, every request reaches the index).
func BenchmarkServeLookup(b *testing.B) {
	maps := serveBenchMappings()
	run := func(b *testing.B, cacheSize int, key string) {
		srv := serve.NewFromMappings(maps, serve.Options{CacheSize: cacheSize})
		h := srv.Handler()
		url := "/lookup?key=" + key
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status = %d", rec.Code)
			}
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, 1024, "left-137-7") })
	b.Run("uncached", func(b *testing.B) { run(b, 0, "left-137-7") })
}

// BenchmarkServeLookupParallel measures concurrent throughput of /lookup —
// the read-only index and lock-free state pointer should let parallel
// clients scale across cores; only the LRU mutex is shared.
func BenchmarkServeLookupParallel(b *testing.B) {
	maps := serveBenchMappings()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 1024})
	h := srv.Handler()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("left-%d-%d", i%200, i%50)
			i++
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?key="+key, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status = %d", rec.Code)
			}
		}
	})
}

// BenchmarkServeAutoFill measures the /autofill endpoint.
func BenchmarkServeAutoFill(b *testing.B) {
	maps := serveBenchMappings()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 0})
	h := srv.Handler()
	body := []byte(`{"column":["left-42-1","left-42-2","left-42-3","left-42-4"],` +
		`"examples":[{"left":"left-42-1","right":"right-42-1"}],"min_coverage":0.9}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/autofill", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkBatchAutoFill measures the bulk-application claim: filling many
// columns through apps.AutoFillBatch (shared pool, deduplicated index
// lookups) versus the same columns through N sequential AutoFill calls.
// The workload is spreadsheet-shaped: 64 column queries over the 200-
// mapping corpus, with each distinct column appearing twice (repeated key
// columns are the norm in sheet fills), so both the parallelism and the
// lookup amortization contribute.
func BenchmarkBatchAutoFill(b *testing.B) {
	maps := serveBenchMappings()
	ix := indexOf(maps)
	var queries []apps.AutoFillQuery
	for q := 0; q < 32; q++ {
		mi := (q * 7) % 200
		col := make([]string, 20)
		for i := range col {
			col[i] = fmt.Sprintf("left-%d-%d", mi, i)
		}
		query := apps.AutoFillQuery{
			Column:      col,
			Examples:    []apps.Example{{Left: col[0], Right: fmt.Sprintf("right-%d-0", mi)}},
			MinCoverage: 0.9,
		}
		queries = append(queries, query, query) // each column twice
	}
	sanity := func(b *testing.B, res []apps.AutoFillResult) {
		if len(res) != len(queries) || res[0].MappingIndex < 0 {
			b.Fatalf("bad batch result: %d entries", len(res))
		}
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := make([]apps.AutoFillResult, len(queries))
			for j, q := range queries {
				res[j] = apps.AutoFill(ix, q.Column, q.Examples, q.MinCoverage)
			}
			sanity(b, res)
		}
	})
	b.Run("batch1", func(b *testing.B) { // amortization only, no parallelism
		p := pool.New(1)
		for i := 0; i < b.N; i++ {
			res, err := apps.AutoFillBatch(context.Background(), ix, p, queries)
			if err != nil {
				b.Fatal(err)
			}
			sanity(b, res)
		}
	})
	b.Run("batch", func(b *testing.B) { // amortization + shared pool
		p := pool.New(0)
		for i := 0; i < b.N; i++ {
			res, err := apps.AutoFillBatch(context.Background(), ix, p, queries)
			if err != nil {
				b.Fatal(err)
			}
			sanity(b, res)
		}
	})
}

// BenchmarkServeBatchAutoFill measures the streaming /batch/autofill
// endpoint end to end — NDJSON decode, pooled per-row compute, streamed
// encode — against the cost of the same columns as individual /autofill
// requests (BenchmarkServeAutoFill measures one such request).
func BenchmarkServeBatchAutoFill(b *testing.B) {
	maps := serveBenchMappings()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 0})
	h := srv.Handler()
	var body bytes.Buffer
	for q := 0; q < 32; q++ {
		mi := (q * 7) % 200
		fmt.Fprintf(&body,
			`{"column":["left-%d-1","left-%d-2","left-%d-3","left-%d-4"],"min_coverage":0.9}`+"\n",
			mi, mi, mi, mi)
	}
	payload := body.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/batch/autofill", bytes.NewReader(payload))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkExperimentFigure7 runs the entire 12-method comparison once per
// iteration — the full evaluation harness cost.
func BenchmarkExperimentFigure7(b *testing.B) {
	if testing.Short() {
		b.Skip("full comparison")
	}
	e := sharedEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard, e, experiments.DefaultSeed)
	}
}
