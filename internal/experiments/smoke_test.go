package experiments

import (
	"testing"
	"time"

	"mapsynth/internal/benchmark"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/pipeline"
)

// TestSmokePipeline runs the whole pipeline on the web corpus and checks
// that synthesis quality lands in the paper's ballpark.
func TestSmokePipeline(t *testing.T) {
	start := time.Now()
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42})
	t.Logf("corpus: %d tables (%.1fs)", len(corpus.Tables), time.Since(start).Seconds())

	res := synthesize(pipeline.DefaultConfig(), corpus.Tables)
	t.Logf("extract: %+v filterRate=%.2f", res.ExtractStats, res.ExtractStats.FilterRate())
	t.Logf("candidates=%d edges=%d partitions=%d removed=%d mappings=%d",
		res.Candidates, res.Edges, res.Partitions, res.TablesRemoved, len(res.Mappings))
	t.Logf("timings: %+v", res.Timings)

	cases := benchmark.CasesFromRelations(corpus.Benchmark)
	outputs := make([]benchmark.PairSet, len(res.Mappings))
	for i, m := range res.Mappings {
		outputs[i] = benchmark.PairSetFromTablePairs(m.Pairs)
	}
	scores := benchmark.EvaluateAll(cases, outputs)
	avg := benchmark.Average(scores)
	t.Logf("Synthesis avg: F=%.3f P=%.3f R=%.3f found=%d/%d",
		avg.F, avg.Precision, avg.Recall, avg.Found, avg.Cases)
	for i, c := range cases {
		if scores[i].F < 0.5 {
			t.Logf("  low case %-28s F=%.2f P=%.2f R=%.2f (truth=%d)",
				c.Name, scores[i].F, scores[i].Precision, scores[i].Recall, len(c.Truth))
		}
	}
	if avg.F < 0.6 {
		t.Errorf("Synthesis average F = %.3f, want >= 0.6", avg.F)
	}
}
