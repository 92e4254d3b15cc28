// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5 and the appendices). Each Figure* function is a
// self-contained driver that prints the same rows/series the paper reports;
// bench_test.go at the repository root wraps them as testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mapsynth/internal/baselines"
	"mapsynth/internal/benchmark"
	"mapsynth/internal/compat"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/extract"
	"mapsynth/internal/graph"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/pool"
	"mapsynth/internal/stats"
	"mapsynth/internal/table"
)

// DefaultSeed seeds every experiment for reproducibility.
const DefaultSeed = 42

// Env bundles the shared inputs of the web-benchmark experiments: the
// corpus, the evaluation cases, and the extraction/graph artifacts shared by
// the candidate-based baselines (all baselines consume the same candidates
// as Synthesis, per Section 5.1).
type Env struct {
	Corpus *corpusgen.Corpus
	Cases  []*benchmark.Case
	Bins   []*table.BinaryTable
	Cands  []*compat.Candidate
	Graph  *graph.Graph

	ExtractStats extract.Stats
	ExtractTime  time.Duration
	GraphTime    time.Duration
}

// NewEnv generates the web corpus and the shared artifacts.
func NewEnv(seed int64) *Env {
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed})
	return newEnvFrom(corpus)
}

// NewEnterpriseEnv generates the enterprise corpus and shared artifacts.
func NewEnterpriseEnv(seed int64) *Env {
	corpus := corpusgen.GenerateEnterprise(corpusgen.Options{Seed: seed})
	return newEnvFrom(corpus)
}

func newEnvFrom(corpus *corpusgen.Corpus) *Env {
	env := &Env{Corpus: corpus}
	env.Cases = benchmark.CasesFromRelations(corpus.Benchmark)

	t0 := time.Now()
	idx := stats.BuildIndex(corpus.Tables)
	ext := extract.New(idx, extract.DefaultOptions())
	env.Bins, env.ExtractStats = ext.ExtractAll(corpus.Tables)
	env.ExtractTime = time.Since(t0)

	t0 = time.Now()
	// The background context is never cancelled, the only error there is.
	env.Cands, _ = compat.PrecomputeParallel(context.Background(), env.Bins, pool.New(0))
	env.Graph = compat.BuildGraph(env.Cands, compat.DefaultOptions(), 0)
	env.GraphTime = time.Since(t0)
	return env
}

// MethodResult is one method's evaluation on the benchmark.
type MethodResult struct {
	// Name matches the paper's method names (Figure 7).
	Name string
	// Scores holds per-case best scores, aligned with Env.Cases.
	Scores []benchmark.Score
	// Avg summarizes the scores.
	Avg benchmark.Averages
	// Runtime is the method's end-to-end wall-clock, including the shared
	// pipeline stages the method depends on.
	Runtime time.Duration
}

// evaluate scores raw output relations against the cases.
func (e *Env) evaluate(name string, outputs []benchmark.PairSet, runtime time.Duration) *MethodResult {
	scores := benchmark.EvaluateAll(e.Cases, outputs)
	return &MethodResult{
		Name:    name,
		Scores:  scores,
		Avg:     benchmark.Average(scores),
		Runtime: runtime,
	}
}

// pairSetsFromLists converts pair lists to evaluation sets.
func pairSetsFromLists(lists [][]table.Pair) []benchmark.PairSet {
	out := make([]benchmark.PairSet, len(lists))
	for i, l := range lists {
		out[i] = benchmark.PairSetFromTablePairs(l)
	}
	return out
}

// synthesize runs the full pipeline over tables. Run fails only when its
// context is cancelled, which the experiments never do.
func synthesize(cfg pipeline.Config, tables []*table.Table) *pipeline.Result {
	res, err := pipeline.New(cfg).Run(context.Background(), tables)
	if err != nil {
		panic("experiments: uncancelled pipeline run failed: " + err.Error())
	}
	return res
}

// MappingOutputs converts a synthesis result to evaluation sets.
func MappingOutputs(res *pipeline.Result) []benchmark.PairSet {
	out := make([]benchmark.PairSet, len(res.Mappings))
	for i, m := range res.Mappings {
		out[i] = benchmark.PairSetFromTablePairs(m.Pairs)
	}
	return out
}

// RunSynthesis runs the full pipeline (its own extraction and graph, so its
// runtime is honest end-to-end) and evaluates it.
func (e *Env) RunSynthesis(cfg pipeline.Config) (*MethodResult, *pipeline.Result) {
	t0 := time.Now()
	res := synthesize(cfg, e.Corpus.Tables)
	rt := time.Since(t0)
	name := "Synthesis"
	if cfg.DisableNegativeSignal {
		name = "SynthesisPos"
	}
	return e.evaluate(name, MappingOutputs(res), rt), res
}

// RunSingleTables evaluates the WikiTable / WebTable / EntTable baselines.
func (e *Env) RunSingleTables(name, domain string) *MethodResult {
	t0 := time.Now()
	lists := baselines.SingleTables(e.Bins, domain)
	rt := e.ExtractTime + time.Since(t0)
	return e.evaluate(name, pairSetsFromLists(lists), rt)
}

// RunUnion evaluates UnionDomain or UnionWeb.
func (e *Env) RunUnion(name string, withDomain bool) *MethodResult {
	t0 := time.Now()
	var lists [][]table.Pair
	if withDomain {
		lists = baselines.UnionDomain(e.Bins)
	} else {
		lists = baselines.UnionWeb(e.Bins)
	}
	rt := e.ExtractTime + time.Since(t0)
	return e.evaluate(name, pairSetsFromLists(lists), rt)
}

// RunSchemaCC sweeps thresholds in [0, 1] (step 0.1) and reports the best
// average F, as the paper does ("we tested different thresholds ... and
// report the best result"). Runtime covers the whole sweep plus the shared
// extraction and graph stages.
func (e *Env) RunSchemaCC(name string, useNegative bool) *MethodResult {
	t0 := time.Now()
	var best *MethodResult
	for th := 0.0; th <= 1.0001; th += 0.1 {
		groups := baselines.SchemaCC(e.Graph, th, useNegative)
		lists := baselines.UnionGroups(e.Bins, groups)
		r := e.evaluate(name, pairSetsFromLists(lists), 0)
		if best == nil || r.Avg.F > best.Avg.F {
			best = r
		}
	}
	best.Runtime = e.ExtractTime + e.GraphTime + time.Since(t0)
	return best
}

// RunCorrelation evaluates parallel-pivot correlation clustering.
func (e *Env) RunCorrelation(seed int64) *MethodResult {
	t0 := time.Now()
	groups := baselines.Correlation(e.Graph, seed, 0)
	lists := baselines.UnionGroups(e.Bins, groups)
	rt := e.ExtractTime + e.GraphTime + time.Since(t0)
	return e.evaluate("Correlation", pairSetsFromLists(lists), rt)
}

// RunWiseIntegrator evaluates the collective schema matcher.
func (e *Env) RunWiseIntegrator() *MethodResult {
	t0 := time.Now()
	groups := baselines.WiseIntegrator(e.Bins)
	lists := baselines.UnionGroups(e.Bins, groups)
	rt := e.ExtractTime + time.Since(t0)
	return e.evaluate("WiseIntegrator", pairSetsFromLists(lists), rt)
}

// RunKB evaluates a simulated knowledge base.
func (e *Env) RunKB(name string, seed int64) *MethodResult {
	t0 := time.Now()
	var outputs []benchmark.PairSet
	switch name {
	case "Freebase":
		outputs = benchmark.KBOutputs(benchmark.BuildFreebase(e.Corpus.Benchmark, seed))
	case "YAGO":
		outputs = benchmark.KBOutputs(benchmark.BuildYAGO(e.Corpus.Benchmark, seed))
	default:
		panic("experiments: unknown KB " + name)
	}
	rt := time.Since(t0)
	return e.evaluate(name, outputs, rt)
}

// RunAllMethods runs the 12 methods of Figure 7 in the paper's order.
func (e *Env) RunAllMethods(seed int64) []*MethodResult {
	synth, _ := e.RunSynthesis(pipeline.DefaultConfig())
	posCfg := pipeline.DefaultConfig()
	posCfg.DisableNegativeSignal = true
	synthPos, _ := e.RunSynthesis(posCfg)
	return []*MethodResult{
		synth,
		e.RunSingleTables("WikiTable", corpusgen.WikipediaDomain),
		e.RunSingleTables("WebTable", ""),
		e.RunUnion("UnionDomain", true),
		e.RunUnion("UnionWeb", false),
		synthPos,
		e.RunCorrelation(seed),
		e.RunSchemaCC("SchemaPosCC", false),
		e.RunSchemaCC("SchemaCC", true),
		e.RunWiseIntegrator(),
		e.RunKB("Freebase", seed),
		e.RunKB("YAGO", seed),
	}
}

// printTable renders rows with a header to w.
func printTable(w io.Writer, header string, rows [][]string) {
	fmt.Fprintln(w, header)
	widths := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
}
