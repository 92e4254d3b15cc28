package benchmark

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mapsynth/internal/loadgen"
)

func baselineResult() *SuiteResult {
	r := &SuiteResult{}
	r.Lookup = MicroBench{NsPerOp: 10000, AllocsPerOp: 50, BytesPerOp: 4000}
	r.Snapshot.V2WriteSeconds = 0.08
	r.Synthesis.DurationSeconds = 2.0
	r.Activation = []ActivationBench{
		{Format: "v2", OpenSeconds: 0.001, HeapAllocDelta: 1 << 16},
	}
	r.Serving = &loadgen.Report{Ops: map[string]loadgen.OpReport{
		"lookup": {P99Ms: 3.0},
	}}
	return r
}

func TestCompareClean(t *testing.T) {
	old, cur := baselineResult(), baselineResult()
	// Within tolerance: 1.2× on a couple of metrics against a 0.5 tolerance.
	cur.Lookup.NsPerOp = 12000
	cur.Activation[0].OpenSeconds = 0.0012
	if regs := Compare(old, cur, 0.5); len(regs) != 0 {
		t.Fatalf("expected clean compare, got %+v", regs)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old, cur := baselineResult(), baselineResult()
	cur.Lookup.NsPerOp = 20000           // 2.0×
	cur.Activation[0].OpenSeconds = 0.01 // 10×
	cur.Serving.Ops["lookup"] = loadgen.OpReport{P99Ms: 9.0}
	regs := Compare(old, cur, 0.5)
	want := map[string]bool{
		"lookup.ns_per_op":      true,
		"activation.v2.open_s":  true,
		"serving.lookup.p99_ms": true,
	}
	if len(regs) != len(want) {
		t.Fatalf("got %d regressions %+v, want %d", len(regs), regs, len(want))
	}
	for _, rg := range regs {
		if !want[rg.Metric] {
			t.Errorf("unexpected regression metric %q", rg.Metric)
		}
		if rg.Ratio <= 1.5 {
			t.Errorf("%s: ratio %.2f should exceed tolerance", rg.Metric, rg.Ratio)
		}
	}
}

func TestCompareSkipsMissingSections(t *testing.T) {
	// BENCH_6.json predates the activation section and may lack serving ops;
	// absent metrics must not gate (and must not crash).
	old := baselineResult()
	old.Activation = nil
	old.Serving = nil
	cur := baselineResult()
	cur.Activation[0].OpenSeconds = 100 // would regress if the old side had it
	if regs := Compare(old, cur, 0.5); len(regs) != 0 {
		t.Fatalf("missing old sections must be skipped, got %+v", regs)
	}
}

// TestCompareZeroBaseline: a baseline section that is present but reports a
// zero value for a gated metric must fail with a clear message — not divide
// by zero into a NaN/Inf ratio, and not silently un-gate the metric.
func TestCompareZeroBaseline(t *testing.T) {
	old, cur := baselineResult(), baselineResult()
	old.Lookup.NsPerOp = 0 // broken baseline run
	regs := Compare(old, cur, 0.5)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %+v, want 1", len(regs), regs)
	}
	rg := regs[0]
	if !strings.Contains(rg.Metric, "lookup.ns_per_op") || !strings.Contains(rg.Metric, "zero baseline") {
		t.Errorf("metric = %q, want the zero-baseline marker", rg.Metric)
	}
	if math.IsNaN(rg.Ratio) || math.IsInf(rg.Ratio, 0) {
		t.Errorf("ratio = %v, must stay JSON-encodable", rg.Ratio)
	}
	if _, err := json.Marshal(regs); err != nil {
		t.Errorf("regressions must marshal: %v", err)
	}
	// Metrics the current run did not measure stay skipped.
	cur.Lookup.NsPerOp = 0
	if regs := Compare(old, cur, 0.5); len(regs) != 0 {
		t.Errorf("absent current metric should skip, got %+v", regs)
	}
}

// TestCompareOlderReports: reports up to BENCH_12 carry v1 rows (snapshot
// bytes/write_s/load_s, a "v1" activation entry) the suite no longer
// produces. They must still parse and gate only what both sides measured.
func TestCompareOlderReports(t *testing.T) {
	old, err := ReadResult("../../BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Activation) != 2 || old.Snapshot.V2WriteSeconds <= 0 {
		t.Fatalf("BENCH_12.json: activation %+v snapshot %+v", old.Activation, old.Snapshot)
	}
	cur := *old
	cur.Activation = old.Activation[1:] // what the suite emits now: "v2" only
	if regs := Compare(old, &cur, 0.5); len(regs) != 0 {
		t.Fatalf("an identical run regressed against BENCH_12: %+v", regs)
	}
	cur.Snapshot.V2WriteSeconds *= 4
	if regs := Compare(old, &cur, 0.5); len(regs) != 1 || regs[0].Metric != "snapshot.v2_write_s" {
		t.Fatalf("4x slower snapshot write: %+v", regs)
	}
}
