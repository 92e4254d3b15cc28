package experiments

import (
	"io"
	"os"
	"testing"

	"mapsynth/internal/pipeline"
)

func sharedTestEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(DefaultSeed)
}

func TestFigure9ScalabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability sweep is slow")
	}
	points := Figure9(io.Discard, DefaultSeed)
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// Table counts must grow with the fraction.
	for i := 1; i < len(points); i++ {
		if points[i].Tables <= points[i-1].Tables {
			t.Errorf("tables not increasing: %+v", points)
		}
	}
	// Runtime must grow with input and stay bounded. The paper reports
	// near-linear scaling because at web scale a larger corpus mostly means
	// *more relations* (sparse edges); at laptop scale a larger sample
	// means more redundancy *per relation* (denser intra-cluster edges), so
	// moderate superlinearity is expected — EXPERIMENTS.md discusses this.
	r20 := points[0].Runtime.Seconds()
	r100 := points[4].Runtime.Seconds()
	if r20 > 0 && r100/r20 > 60 {
		t.Errorf("scaling blow-up: 20%%=%.3fs 100%%=%.3fs", r20, r100)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Runtime < points[i-1].Runtime/2 {
			t.Errorf("runtime not monotone-ish: %+v", points)
		}
	}
}

func TestFigure10EnterpriseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("enterprise run is slow")
	}
	synth, ent := Figure10(io.Discard, DefaultSeed)
	// Paper Figure 10: Synthesis (0.96, 0.96, 0.97) vs EntTable
	// (0.84, 0.99, 0.79): Synthesis wins recall and F by merging small
	// tables; EntTable has slightly higher precision.
	if synth.Avg.F <= ent.Avg.F {
		t.Errorf("Synthesis F %.3f should beat EntTable %.3f", synth.Avg.F, ent.Avg.F)
	}
	if synth.Avg.Recall <= ent.Avg.Recall {
		t.Errorf("Synthesis recall %.3f should beat EntTable %.3f", synth.Avg.Recall, ent.Avg.Recall)
	}
	if synth.Avg.F < 0.7 {
		t.Errorf("Synthesis enterprise F = %.3f too low", synth.Avg.F)
	}
}

func TestFigure15ConflictResolutionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("resolution comparison is slow")
	}
	env := sharedTestEnv(t)
	res := Figure15(os.Stderr, env)
	// Section 5.6: resolution raises precision markedly and costs at most a
	// sliver of recall; it improves a majority-sized share of cases; and it
	// edges out majority voting on F.
	if res.With.Avg.Precision <= res.Without.Avg.Precision {
		t.Errorf("precision did not improve: %.3f vs %.3f",
			res.With.Avg.Precision, res.Without.Avg.Precision)
	}
	if res.Without.Avg.Recall-res.With.Avg.Recall > 0.05 {
		t.Errorf("resolution cost too much recall: %.3f -> %.3f",
			res.Without.Avg.Recall, res.With.Avg.Recall)
	}
	if res.With.Avg.F < res.Majority.Avg.F-0.02 {
		t.Errorf("greedy resolution F %.3f clearly below majority voting %.3f",
			res.With.Avg.F, res.Majority.Avg.F)
	}
	if res.Improved < len(env.Cases)/4 {
		t.Errorf("resolution improved only %d/%d cases", res.Improved, len(env.Cases))
	}
}

func TestAppendixJUsefulness(t *testing.T) {
	if testing.Short() {
		t.Skip("usefulness analysis is slow")
	}
	env := sharedTestEnv(t)
	shares := AppendixJ(io.Discard, env, 150)
	if shares.Inspected == 0 {
		t.Fatal("no clusters inspected")
	}
	// Meaningful (static + temporal) mappings must dominate the top
	// clusters (paper: 87.4% meaningful).
	if meaningful := shares.Static + shares.Temporal; meaningful < 0.6 {
		t.Errorf("meaningful share = %.2f, want >= 0.6", meaningful)
	}
	if shares.Static < shares.Meaningless {
		t.Errorf("static %.2f below meaningless %.2f", shares.Static, shares.Meaningless)
	}
}

func TestAppendixIExpansion(t *testing.T) {
	if testing.Short() {
		t.Skip("expansion experiment is slow")
	}
	env := sharedTestEnv(t)
	results := AppendixI(io.Discard, env)
	if len(results) == 0 {
		t.Fatal("no expansion cases ran")
	}
	for _, r := range results {
		if r.After.Recall < r.Before.Recall-1e-9 {
			t.Errorf("%s: expansion reduced recall %.3f -> %.3f", r.Case, r.Before.Recall, r.After.Recall)
		}
	}
}

func TestSensitivitySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep is slow")
	}
	env := sharedTestEnv(t)
	// Just the θ sweep here (the full sweep runs via cmd/benchmark): quality
	// must be stable across θ ∈ [0.93, 0.97] (§5.4: "the number of
	// resulting mappings change very little").
	var fs []float64
	for _, th := range []float64{0.93, 0.95, 0.97} {
		cfg := pipeline.DefaultConfig()
		cfg.Extract.ThetaFD = th
		r, _ := env.RunSynthesis(cfg)
		fs = append(fs, r.Avg.F)
	}
	for i := 1; i < len(fs); i++ {
		if diff := fs[i] - fs[0]; diff > 0.05 || diff < -0.05 {
			t.Errorf("theta sensitivity too strong: %v", fs)
		}
	}
}

func TestExtractionStatsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("extraction stats need the full pipeline env")
	}
	env := sharedTestEnv(t)
	ExtractionStats(io.Discard, env)
	if env.ExtractStats.FilterRate() < 0.3 {
		t.Errorf("filter rate = %.2f, want a substantial share pruned", env.ExtractStats.FilterRate())
	}
	if env.ExtractStats.ColumnsDropped == 0 {
		t.Error("PMI filter dropped nothing")
	}
}
