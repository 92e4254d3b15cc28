package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mapsynth/pkg/client"
)

// TestMain lets the test binary stand in for the benchmark executable when
// build-web re-runs it as its child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// The first 32 operations of each seeded stream at seed 42, client 0, over
// goldenKeyspace and a pool of mixedPoolSize queries.
const (
	goldenPoint = "k0860 k0015 k0000 k2793 k0285 k2211 absent3973 k0000 k0195 k0003 k0018 k2661 k0602 k0033 k0012 absent3654 k0024 k0378 k0003 k0408 k0000 k0003 k3791 k0099 k1077 k1963 k0096 k0102 k0000 k1642 k0000 k0048"
	goldenMixed = "batch-autojoin:124 batch-autofill:158 autofill:175 autojoin:40 batch-autofill:250 batch-autofill:254 autojoin:246 autocorrect:11 batch-autofill:72 autocorrect:155 batch-autocorrect:167 autocorrect:110 autofill:34 autojoin:174 autocorrect:107 batch-autocorrect:90 autojoin:54 batch-autofill:18 batch-autojoin:56 autofill:72 autofill:92 batch-autocorrect:234 batch-autofill:222 autojoin:139 batch-autocorrect:130 autofill:128 batch-autofill:242 autofill:180 autofill:170 batch-autojoin:136 autocorrect:86 autofill:150"
)

func TestQuantileIsNearestRankOnExactSamples(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}, {0.011, 2}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %d, want it", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		have bool
	}{
		{5, 0, false},
		{99, 0, false},     // p90 of 99 sits at rank 90: 9 beyond
		{100, 0.9, true},   // rank 90, 10 beyond
		{999, 0.9, true},   // p99 at rank 990: 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{10000, 0.999, true},
		{116586, 0.9999, true},
	} {
		q, ok := supportedTail(c.n)
		if ok != c.have || q != c.q {
			t.Errorf("supportedTail(%d) = %g, %v; want %g, %v", c.n, q, ok, c.q, c.have)
		}
	}
	// Below the lowest rung the summary quotes the maximum.
	sum := summarize([]int64{3, 9, 1})
	if sum.TailQ != 0 || sum.Tail != 9 || sum.P50 != 3 || sum.P99 != 9 || sum.N != 3 {
		t.Errorf("summarize(3 samples) = %+v", sum)
	}
}

func TestQuietTenthOfSlices(t *testing.T) {
	// 40 slices: four quiet ones, the rest disturbed by another tenant to
	// a degree that differs from run to run. The quiet tenth does not see
	// the degree; the median follows it.
	slicesAt := func(disturbed float64) []float64 {
		v := make([]float64, 40)
		for i := range v {
			v[i] = disturbed + float64(i%7)
		}
		v[3], v[11], v[20], v[33] = 100, 101, 102, 103
		return v
	}
	calm, noisy := slicesAt(120), slicesAt(170)
	if a, b := quietLow(calm), quietLow(noisy); a != 103 || b != 103 {
		t.Errorf("quietLow = %g and %g, want the fourth lowest of 40, 103, both times", a, b)
	}
	if a, b := medianFloat(calm), medianFloat(noisy); a == b {
		t.Errorf("the median must follow the disturbance, got %g both times", a)
	}
	// Fewer than ten slices give the best one; none give 0.
	if got := quietLow([]float64{9, 4, 6}); got != 4 {
		t.Errorf("quietLow of 3 slices = %g, want the lowest", got)
	}
	if quietLow(nil) != 0 {
		t.Error("quiet of nothing must be 0")
	}
	// A slowdown of the program moves every slice, and so the quiet ones.
	slow := slicesAt(120)
	for i := range slow {
		slow[i] *= 1.1
	}
	if got := quietLow(slow); got <= 103*1.09 {
		t.Errorf("a 10%% slowdown of every slice reads %g at the quiet tenth, want about %g", got, 103*1.1)
	}
}

func TestCutSlicesByCompletions(t *testing.T) {
	// Ten completions 1 ms apart, the sixth a 16-row batch that is not timed.
	var ops []opRec
	for i := 0; i < 10; i++ {
		ops = append(ops, opRec{end: time.Duration(i+1) * time.Millisecond, lat: time.Duration(100+i) * time.Microsecond, units: 1, timed: true})
	}
	ops[5].units, ops[5].timed = 16, false
	sl := cutSlices(ops, 3)
	// The first three only mark where the second slice begins; the tenth
	// is a partial slice and is dropped.
	if len(sl) != 2 {
		t.Fatalf("cutSlices(10 ops, 3) = %d slices, want 2", len(sl))
	}
	if sl[0].units != 18 || sl[0].wall != 3*time.Millisecond || len(sl[0].lat) != 2 {
		t.Errorf("slice 0 = %+v, want 18 units over 3 ms with 2 timed latencies", sl[0])
	}
	if sl[1].units != 3 || sl[1].wall != 3*time.Millisecond || len(sl[1].lat) != 3 {
		t.Errorf("slice 1 = %+v, want 3 units over 3 ms with 3 timed latencies", sl[1])
	}
	if r := sliceRates(sl); len(r) != 2 || r[0] != 6000 || r[1] != 1000 {
		t.Errorf("sliceRates = %v, want 6000 and 1000 units/s", r)
	}
	// A slice's quantile counts only when it holds enough timed samples.
	if q := sliceQuantiles(sl, 0.5); len(q) != 0 {
		t.Errorf("sliceQuantiles of slices with under %d latencies = %v", minSliceLats, q)
	}
	big := cutSlices(append(ops, ops...), 10)
	if q := sliceQuantiles(big, 0.5); len(big) != 1 || len(q) != 1 || q[0] != 0.104 {
		t.Errorf("sliceQuantiles = %v of %d slices, want the median 0.104 ms of one", q, len(big))
	}
	if got := cutSlices(ops[:5], 3); got != nil {
		t.Errorf("too few completions for a second slice must give none, got %v", got)
	}
}

func TestCPUPerUnitChargesIntervals(t *testing.T) {
	ms := time.Millisecond
	samples := []cpuSample{{0, 100 * ms}, {20 * ms, 110 * ms}, {41 * ms, 110 * ms}, {60 * ms, 125 * ms}}
	ops := []opRec{
		{end: 5 * ms, units: 1}, {end: 15 * ms, units: 1}, // 10 ms of CPU over 2 units
		// nothing completes in the second interval: skipped
		{end: 45 * ms, units: 16}, {end: 59 * ms, units: 14}, // 15 ms over 30 units
		{end: 70 * ms, units: 1}, // after the last sample: not charged
	}
	got := cpuPerUnit(samples, ops)
	if want := []float64{5000, 500}; !reflect.DeepEqual(got, want) {
		t.Errorf("cpuPerUnit = %v us, want %v", got, want)
	}
}

func TestChunkValues(t *testing.T) {
	ms := int64(time.Millisecond)
	// 9 repetitions in chunks of 4: the last short chunk joins the one before.
	samples := []int64{70 * ms, 72 * ms, 71 * ms, 300 * ms, 74 * ms, 73 * ms, 76 * ms, 75 * ms, 90 * ms}
	if got, want := chunkValues(samples, 4, 0.5), []float64{71, 75}; !reflect.DeepEqual(got, want) {
		t.Errorf("chunk medians = %v, want %v", got, want)
	}
	worst := chunkValues(samples, 4, 1)
	if want := []float64{300, 90}; !reflect.DeepEqual(worst, want) {
		t.Errorf("chunk maxima = %v, want %v", worst, want)
	}
	// One stall decides one chunk, not the number.
	if got := quietLow(worst); got != 90 {
		t.Errorf("quiet tail = %g, want 90", got)
	}
	if got := chunkValues(samples[:3], 4, 1); len(got) != 1 || got[0] != 72 {
		t.Errorf("fewer samples than a chunk = %v, want one chunk", got)
	}
	if got := chunkValues(nil, 4, 1); got != nil {
		t.Errorf("chunkValues of nothing = %v", got)
	}
}

func TestSelfTimesAreRungDifferences(t *testing.T) {
	rungs := []float64{9000, 11000, 25000, 240000, 500000}
	self := selfTimes(rungs)
	if want := []float64{9000, 2000, 14000, 215000, 260000}; !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	sum := 0.0
	for _, s := range self {
		sum += s
	}
	if sum != rungs[len(rungs)-1] {
		t.Errorf("self times sum to %g, want the top rung %g", sum, rungs[len(rungs)-1])
	}
	if got := selfTimes([]float64{100, 90}); got[1] != -10 {
		t.Errorf("a faster upper rung must read negative, got %v", got)
	}
	if !nested(-4, 100, 0.05) || nested(-6, 100, 0.05) {
		t.Errorf("nested tolerates a twentieth of the rung, no more")
	}
}

func TestTracerSelfTimeSubtractsChildCover(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 20},
	}
	if got := tr.selfTime(1); got != 40 {
		t.Errorf("selfTime = %d, want 100 - (50 + 10) = 40", got)
	}
	if got := tr.selfTime(2); got != 22 {
		t.Errorf("selfTime of a = %d, want 30 - 8 = 22", got)
	}
}

func TestScheduleAndLatenessAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 1000)
	if s.interval != time.Millisecond {
		t.Fatalf("interval at 1000/s = %v", s.interval)
	}
	if got := s.due(250); !got.Equal(start.Add(250 * time.Millisecond)) {
		t.Errorf("due(250) = %v", got)
	}
	due := s.due(3)
	// Sent 2 ms late, answered 5 ms after the due time: the stall is
	// charged to the request.
	p := account(due, due.Add(2*time.Millisecond), due.Add(5*time.Millisecond))
	if p.latency != 5*time.Millisecond || p.lateness != 2*time.Millisecond {
		t.Errorf("account = %+v, want latency 5ms from the due time, lateness 2ms", p)
	}
	// An early wake-up is not negative lateness.
	if p := account(due, due.Add(-time.Microsecond), due.Add(time.Millisecond)); p.lateness != 0 {
		t.Errorf("early send lateness = %v, want 0", p.lateness)
	}
	// wait does not sleep for a slot already past, so a late sender catches up.
	past := schedule{start: time.Now().Add(-time.Second), interval: time.Millisecond}
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		past.wait(i)
	}
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Errorf("100 overdue slots took %v; wait must not sleep for them", d)
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (serve (v2) x) S 1 4242 4242 0 -1 4194560 2031 0 0 0 731 269 0 0 20 0 9 0 123456 1280000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 10*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 10s (731+269 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("4242 serve S 1"); err == nil {
		t.Error("parseStatCPU accepted a line without a command field")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tserve\nVmPeak:\t 1300000 kB\nVmHWM:\t  172032 kB\nVmRSS:\t  100000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 172032 {
		t.Errorf("parseStatusKB(VmHWM) = %d, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a key that is not there")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("parseStatusKB accepted a unit other than kB")
	}
	// And against the live kernel: the CPU clock of a process moves with the
	// work it does, in steps far finer than a clock tick.
	before, err := procCPU(os.Getpid())
	if err != nil || before <= 0 {
		t.Fatalf("procCPU(self) = %v, %v", before, err)
	}
	for spin := time.Now(); time.Since(spin) < 3*time.Millisecond; {
	}
	if after, err := procCPU(os.Getpid()); err != nil || after-before < time.Millisecond || after-before > time.Second {
		t.Errorf("procCPU(self) moved by %v over a 3 ms spin (%v)", after-before, err)
	}
	if _, err := procCPU(1 << 25); err == nil {
		t.Error("procCPU of a process that does not exist gave no error")
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSMB(self) = %v, %v", mb, err)
	}
}

// goldenKeyspace is synthetic, so the stream goldens pin the generators and
// not the corpus or the pipeline.
func goldenKeyspace() keyspace {
	var ks keyspace
	for i := 0; i < 4000; i++ {
		ks.all = append(ks.all, fmt.Sprintf("k%04d", i))
	}
	for i := 0; i < hotKeys; i++ {
		ks.hot = append(ks.hot, fmt.Sprintf("k%04d", i*3))
	}
	for i := 0; i < absentKeys; i++ {
		ks.absent = append(ks.absent, fmt.Sprintf("absent%04d", i))
	}
	return ks
}

func TestSeededStreamsGolden(t *testing.T) {
	point := newPointStream(42, 0, goldenKeyspace())
	var keys []string
	for i := 0; i < 32; i++ {
		keys = append(keys, point.next())
	}
	if got := strings.Join(keys, " "); got != goldenPoint {
		t.Errorf("first 32 query-point keys at seed 42, client 0:\n got %s\nwant %s", got, goldenPoint)
	}
	mixed := newMixedStream(42, 0, mixedPoolSize)
	var ops []string
	for i := 0; i < 32; i++ {
		op := mixed.next()
		ops = append(ops, fmt.Sprintf("%s:%d", op.kind, op.rows[0]))
		if isBatch, _ := op.kind.batch(); isBatch != (len(op.rows) == columnRows) || (!isBatch && len(op.rows) != 1) {
			t.Errorf("op %d %s carries %d rows", i, op.kind, len(op.rows))
		}
	}
	if got := strings.Join(ops, " "); got != goldenMixed {
		t.Errorf("first 32 query-mixed ops at seed 42, client 0:\n got %s\nwant %s", got, goldenMixed)
	}
	// Same seed, same stream; another client or seed, another stream.
	again := newPointStream(42, 0, goldenKeyspace())
	other := newPointStream(42, 1, goldenKeyspace())
	same, differs := true, false
	for i := 0; i < 32; i++ {
		same = same && again.next() == keys[i]
		differs = differs || other.next() != keys[i]
	}
	if !same || !differs {
		t.Errorf("stream determinism: same seed equal = %v, other client differs = %v", same, differs)
	}
}

func TestPointStreamMix(t *testing.T) {
	ks := goldenKeyspace()
	hot := make(map[string]bool)
	for _, k := range ks.hot {
		hot[k] = true
	}
	s := newPointStream(7, 0, ks)
	const n = 20000
	var nHot, nAbsent int
	for i := 0; i < n; i++ {
		switch k := s.next(); {
		case strings.HasPrefix(k, "absent"):
			nAbsent++
		case hot[k]:
			nHot++
		}
	}
	// 70% Zipf over the hot set plus the uniform draws that land in it
	// (20% x 1024/4000); 10% absent.
	if share := float64(nHot) / n; share < 0.72 || share > 0.78 {
		t.Errorf("hot share = %.3f, want about 0.75", share)
	}
	if share := float64(nAbsent) / n; share < 0.09 || share > 0.11 {
		t.Errorf("absent share = %.3f, want about 0.10", share)
	}
}

func TestSpreadMarksUnresolved(t *testing.T) {
	d := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	if row := spreadOf("w", d, []float64{1.00, 1.04, 1.08}); row.Unresolved || row.Median != 1.04 {
		t.Errorf("8%% range under a 10%% bound: %+v", row)
	}
	if row := spreadOf("w", d, []float64{1.00, 1.04, 1.20}); !row.Unresolved {
		t.Errorf("19%% range under a 10%% bound must be unresolved: %+v", row)
	}
	layer := metricDef{Name: "index.lookup_p50_ns", Unit: "ns", Better: "lower"}
	if row := spreadOf("w", layer, []float64{1, 5}); row.Unresolved {
		t.Errorf("a metric without a bound is never unresolved: %+v", row)
	}
}

func TestReportCountsWrongAnswersAndRefusesGaps(t *testing.T) {
	r := newReport("query-point", false)
	r.check(true, "fine")
	r.check(false, "lookup %q: wrong", "k")
	r.count(10, 2, "first")
	if r.Attempted != 12 || r.Failed != 3 || len(r.Failures) != 2 {
		t.Fatalf("report = %+v", r)
	}
	if err := r.finish(); err == nil {
		t.Fatal("finish accepted a report with unmeasured metrics")
	}
	for _, d := range endToEnd {
		r.set(d.Name, 1.5)
	}
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Values["ok_share"], 1-3.0/12; got != want {
		t.Errorf("ok_share = %v, want %v", got, want)
	}
	line, err := r.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 || string(obj["correct"]) != "false" || string(obj["attempted"]) != "12" || string(obj["failed"]) != "3" {
		t.Errorf("driver line = %s", line)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) || metrics["p50_ms"].Unit != "ms" {
		t.Errorf("driver metrics = %s (%v)", obj["metrics"], err)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the declared contract and the code
// in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", decl.Workloads, workloads)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if len(endToEnd) != 11 || len(perLayer) != 56 || len(workloads) != 4 {
		t.Errorf("catalog has %d end-to-end, %d layer metrics, %d workloads; want 11, 56, 4", len(endToEnd), len(perLayer), len(workloads))
	}
	if got := time.Duration(decl.RunSeconds) * time.Second; got != newSizing(false, 0).seconds {
		t.Errorf("run_seconds %v differs from the default window %v", got, newSizing(false, 0).seconds)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
}

// TestQuickPass drives every workload and the traced pass end to end at
// -quick size against a freshly built cmd/serve.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/serve and runs every workload")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	e, err := newEnv(ctx, 42, newSizing(true, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// The build-web child is this test binary re-run; TestMain routes it.
	names := []string{"build-web", "query-point", "query-mixed", "ingest-live"}
	reports, err := e.runSet(ctx, names, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(names)+1 {
		t.Fatalf("%d reports, want one per workload and the ledger", len(reports))
	}
	for _, r := range reports {
		if r.Failed != 0 {
			t.Errorf("%s (traced %v): %d of %d failed: %v", r.Workload, r.Traced, r.Failed, r.Attempted, r.Failures)
		}
		if _, err := r.driverLine(); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
	}
	// A second set in the same process (-repeat) must start from empty
	// ingest logs, not replay the first set's.
	again, err := e.runSet(ctx, []string{"ingest-live"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if r.Failed != 0 {
			t.Errorf("second set, %s (traced %v): %d of %d failed: %v", r.Workload, r.Traced, r.Failed, r.Attempted, r.Failures)
		}
	}
	if _, err := os.Stat(e.root + "/.bench_build/spans.ndjson"); err != nil {
		t.Errorf("the traced pass left no span file: %v", err)
	}

	// A deliberately wrong expected answer is a failure, not a pass.
	s, _, err := e.setupServing(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.stop()
	orc, err := openOracle(s.path)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.close()
	qp := newQueryPool(42, s.maps, 8)
	want, err := orc.answers(ctx, qp)
	if err != nil {
		t.Fatal(err)
	}
	c := oneConn(s.srv.url)
	for kind := opFill; kind <= opBatchJoin; kind++ {
		op := mixedOp{kind: kind, rows: []int{3}}
		if isBatch, _ := kind.batch(); isBatch {
			op.rows = []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7}
		}
		if out := issueMixed(ctx, c, op, qp, want); out.fail != "" || out.rows != len(op.rows) {
			t.Errorf("%s with the oracle's answers: %+v", kind, out)
		}
	}
	wrong := want
	wrong.fill = append([]client.AutoFillResponse(nil), want.fill...)
	wrong.fill[3].Found = !wrong.fill[3].Found
	if out := issueMixed(ctx, c, mixedOp{kind: opFill, rows: []int{3}}, qp, wrong); out.fail == "" {
		t.Error("a single answer differing from the expected one was not counted as a failure")
	}
	if out := issueMixed(ctx, c, mixedOp{kind: opBatchFill, rows: []int{0, 3}}, qp, wrong); out.fail == "" {
		t.Error("a batch row differing from the expected one was not counted as a failure")
	}
	ks := newKeyspace(42, s.maps)
	lw, err := orc.lookups(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, ks.hot[0])
	if err != nil || !sameLookup(got, lw[ks.hot[0]]) {
		t.Errorf("lookup %q = %+v, %v; want %+v", ks.hot[0], got, err, lw[ks.hot[0]])
	}
	if sameLookup(got, lookupWant{found: true, value: lw[ks.hot[0]].value + " (wrong)"}) {
		t.Error("a lookup value differing from the expected one compares equal")
	}
}
