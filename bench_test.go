// Package mapsynth's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (EXPERIMENTS.md maps them), plus
// micro-benchmarks for the build-side primitives and for the applications
// over a served image. End-to-end serving costs are not measured here:
// bench/'s per-layer ledger owns them. Run with:
//
//	go test -bench=. -benchmem
package mapsynth

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mapsynth/internal/apps"
	"mapsynth/internal/baselines"
	"mapsynth/internal/compat"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/experiments"
	"mapsynth/internal/extract"
	"mapsynth/internal/graph"
	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
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

// synthesize runs the full pipeline, failing the benchmark on error.
func synthesize(b *testing.B, cfg pipeline.Config, tables []*table.Table) *pipeline.Result {
	res, err := pipeline.New(cfg).Run(context.Background(), tables)
	if err != nil {
		b.Fatal(err)
	}
	return res
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
		res := synthesize(b, pipeline.DefaultConfig(), e.Corpus.Tables)
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
			synthesize(b, pipeline.DefaultConfig(), e.Corpus.Tables)
		}
	})
	b.Run("SynthesisPos", func(b *testing.B) {
		cfg := pipeline.DefaultConfig()
		cfg.DisableNegativeSignal = true
		for i := 0; i < b.N; i++ {
			synthesize(b, cfg, e.Corpus.Tables)
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
			cfg := pipeline.DefaultConfig()
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if res := synthesize(b, cfg, e.Corpus.Tables); len(res.Mappings) == 0 {
					b.Fatal("no mappings")
				}
			}
		})
	}
}

// BenchmarkEngineRunStages runs Engine.Run over the scale-2 web corpus
// (bench/'s build-web corpus), one Engine reused across iterations, and
// reports each stage's mean wall-clock in ms beside ns/op. With -benchmem
// its B/op and allocs/op are one run's allocation.
func BenchmarkEngineRunStages(b *testing.B) {
	c := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42, Scale: 2})
	eng := pipeline.New(pipeline.DefaultConfig())
	var names []string
	stageNs := map[string]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), c.Tables)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range res.Stages {
			if _, ok := stageNs[st.Name]; !ok {
				names = append(names, st.Name)
			}
			stageNs[st.Name] += st.Duration
		}
	}
	for _, n := range names {
		b.ReportMetric(float64(stageNs[n].Microseconds())/1e3/float64(b.N), n+"_ms")
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
				synthesize(b, pipeline.DefaultConfig(), corpus.Tables)
			}
		})
	}
}

// BenchmarkFigure10_Enterprise regenerates the enterprise pipeline run.
func BenchmarkFigure10_Enterprise(b *testing.B) {
	corpus := corpusgen.GenerateEnterprise(corpusgen.Options{Seed: experiments.DefaultSeed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synthesize(b, pipeline.DefaultConfig(), corpus.Tables)
	}
}

// BenchmarkFigure15_ConflictResolution compares the resolution strategies of
// Section 5.6 (greedy removal vs majority voting vs none).
func BenchmarkFigure15_ConflictResolution(b *testing.B) {
	e := sharedEnv()
	for _, v := range []struct {
		name string
		res  pipeline.ResolutionStrategy
	}{
		{"greedy", pipeline.ResolveGreedy},
		{"majority", pipeline.ResolveMajority},
		{"none", pipeline.ResolveNone},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.Resolution = v.res
			for i := 0; i < b.N; i++ {
				synthesize(b, cfg, e.Corpus.Tables)
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
			cfg := pipeline.DefaultConfig()
			cfg.Tau = tau
			for i := 0; i < b.N; i++ {
				synthesize(b, cfg, e.Corpus.Tables)
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

// BenchmarkExtraction measures the extraction front end: building the
// co-occurrence index, then Algorithm 1 over every table (coherence, FD and
// numeric filters on each table's interned cells).
func BenchmarkExtraction(b *testing.B) {
	e := sharedEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := stats.BuildIndex(e.Corpus.Tables)
		extract.New(idx, extract.DefaultOptions()).ExtractAll(e.Corpus.Tables)
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

// appsQueries is the query pool of bench/'s query-mixed workload, rebuilt
// here: per application, columns of up to 16 pairs cut from the served
// mappings at seeded offsets, with the workload's parameters.
type appsQueries struct {
	keys    []string
	fill    []apps.AutoFillQuery
	correct []apps.AutoCorrectQuery
	join    []apps.AutoJoinQuery
}

func newAppsQueries(maps []*mapping.Mapping, n int) appsQueries {
	var usable []*mapping.Mapping
	for _, m := range maps {
		if len(m.Pairs) >= 4 {
			usable = append(usable, m)
		}
	}
	rng := rand.New(rand.NewSource(42))
	var qs appsQueries
	for i := 0; i < n; i++ {
		m := usable[rng.Intn(len(usable))]
		rows := min(16, len(m.Pairs))
		off := rng.Intn(len(m.Pairs) - rows + 1)
		lefts, rights := make([]string, rows), make([]string, rows)
		for j, p := range m.Pairs[off : off+rows] {
			lefts[j], rights[j] = p.L, p.R
		}
		qs.keys = append(qs.keys, lefts[rng.Intn(rows)])
		qs.fill = append(qs.fill, apps.AutoFillQuery{Column: lefts, MinCoverage: 0.8,
			Examples: []apps.Example{{Left: lefts[0], Right: rights[0]}}})
		// Mostly left values with a minority of right values mixed in.
		split := rows - rows/3
		mixed := append(append([]string{}, lefts[:split]...), rights[split:]...)
		qs.correct = append(qs.correct, apps.AutoCorrectQuery{Column: mixed, MinEach: 2, MinCoverage: 0.8})
		qs.join = append(qs.join, apps.AutoJoinQuery{KeysA: lefts, KeysB: rights, MinCoverage: 0.8})
	}
	return qs
}

var (
	appsOnce    sync.Once
	appsSession *apps.Session
	appsPool    appsQueries
	appsErr     error
)

// appsFixture serves the scale-2 web corpus (bench/'s served corpus) as an
// in-memory v2 image and draws the query pool from its mappings.
func appsFixture(b *testing.B) (*apps.Session, appsQueries) {
	appsOnce.Do(func() {
		c := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42, Scale: 2})
		res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), c.Tables)
		if err != nil {
			appsErr = err
			return
		}
		h, err := snapshot.FromMappings(res.Mappings)
		if err != nil {
			appsErr = err
			return
		}
		appsSession = apps.NewSession(index.FromSource(h))
		appsPool = newAppsQueries(res.Mappings, 256)
	})
	if appsErr != nil {
		b.Fatal(appsErr)
	}
	return appsSession, appsPool
}

// appsSink keeps the benchmarked calls' results alive.
var appsSink any

// BenchmarkApps measures one single-query Session call per application
// over the pool, mappings already materialized (a warm server), with
// allocations: the work above the index that every served query pays.
func BenchmarkApps(b *testing.B) {
	sess, qs := appsFixture(b)
	ctx := context.Background()
	run := func(name string, call func(i int) (any, error)) {
		b.Run(name, func(b *testing.B) {
			for i := range qs.keys { // materialize every mapping the pool hits
				if _, err := call(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := call(i % len(qs.keys))
				if err != nil {
					b.Fatal(err)
				}
				appsSink = res
			}
		})
	}
	run("Lookup", func(i int) (any, error) {
		return sess.Lookup(ctx, []apps.LookupQuery{{Key: qs.keys[i]}})
	})
	run("AutoFill", func(i int) (any, error) {
		return sess.AutoFill(ctx, []apps.AutoFillQuery{qs.fill[i]})
	})
	run("AutoCorrect", func(i int) (any, error) {
		return sess.AutoCorrect(ctx, []apps.AutoCorrectQuery{qs.correct[i]})
	})
	run("AutoJoin", func(i int) (any, error) {
		return sess.AutoJoin(ctx, []apps.AutoJoinQuery{qs.join[i]})
	})
}
