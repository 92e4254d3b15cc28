package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json carries the same table and
// a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload prints
// every metric; README.md says what each name is on each workload, and which
// repeat another because they do not apply. Bound is the share of the
// parent's median by which a metric may worsen before a change counts as a
// regression. Every timing carries the widest bound allowed, 0.25: this
// shared 2-core VM runs the same code 20-30% slower for seconds to minutes at
// a time, and ten runs that straddle such a change read 15-27% between
// quartiles (README.md, "Noise floor"). What the corpus fixes exactly carries
// a tight bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"visible_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"quality_f1", "ratio", "higher", 0.005},
	{"bytes_per_pair", "B", "lower", 0.01},
	{"ok_share", "ratio", "higher", 0.001},
}

// perLayer lists the ledger of the traced pass: counts, busy times and
// self times taken at the public boundary of each module. They carry no
// bound; they say where an end-to-end change came from.
var perLayer = []metricDef{
	{Name: "corpusgen.generate_s", Unit: "s", Better: "lower"},
	{Name: "stats.index_s", Unit: "s", Better: "lower"},
	{Name: "extract.stage_s", Unit: "s", Better: "lower"},
	{Name: "extract.candidates", Unit: "count", Better: "lower"},
	{Name: "compat.graph_s", Unit: "s", Better: "lower"},
	{Name: "compat.edges", Unit: "count", Better: "lower"},
	{Name: "graph.components", Unit: "count", Better: "higher"},
	{Name: "synthesis.partition_s", Unit: "s", Better: "lower"},
	{Name: "synthesis.partitions", Unit: "count", Better: "lower"},
	{Name: "conflict.resolve_s", Unit: "s", Better: "lower"},
	{Name: "conflict.tables_removed", Unit: "count", Better: "lower"},
	{Name: "pipeline.run_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.self_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.mappings", Unit: "count", Better: "higher"},
	{Name: "pipeline.pairs", Unit: "count", Better: "higher"},
	{Name: "snapshot.write_v2_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.open_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.load_bytes_us", Unit: "us", Better: "lower"},
	{Name: "index.lookup_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "index.lookup_allocs", Unit: "allocs", Better: "lower"},
	{Name: "index.lookup_bytes", Unit: "B", Better: "lower"},
	{Name: "index.absent_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "index.column_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "index.column_allocs", Unit: "allocs", Better: "lower"},
	{Name: "index.mixed_hits_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.lookup_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.lookup_allocs", Unit: "allocs", Better: "lower"},
	{Name: "apps.autofill_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.autofill_allocs", Unit: "allocs", Better: "lower"},
	{Name: "apps.autocorrect_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.autojoin_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.lookup_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.lookup_allocs", Unit: "allocs", Better: "lower"},
	{Name: "serve.autofill_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.autofill_allocs", Unit: "allocs", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.throttled", Unit: "count", Better: "lower"},
	{Name: "serve.activate_us", Unit: "us", Better: "lower"},
	{Name: "qos.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "client.lookup_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "client.lookup_allocs", Unit: "allocs", Better: "lower"},
	{Name: "client.autofill_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.proxy_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.proxy_allocs", Unit: "allocs", Better: "lower"},
	{Name: "ingest.log_append_p50_us", Unit: "us", Better: "lower"},
	{Name: "ingest.first_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.synthesis_runs", Unit: "count", Better: "lower"},
	{Name: "pipeline.incremental_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.incremental_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.openloop_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.openloop_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.openloop_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"build-web", "offline synthesis of the web corpus: compat/graph, synthesis and conflict do the work, serving code does none"},
	{"query-point", "closed-loop lookups, mostly cache hits: handler, admission, JSON, access log and socket dominate, index work is a minority"},
	{"query-mixed", "closed-loop autofill/autocorrect/autojoin, singles and 16-row batches: bypasses the lookup cache, index and apps dominate"},
	{"ingest-live", "tables trickled in beside paced lookups: the one place log fsync, incremental synthesis and activation are user-visible"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// report collects one pass of one workload: the metric values, the
// operations attempted and failed (a wrong answer is a failure), and lines
// of detail for the human reader.
type report struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	// Failures keeps the first few failure messages for diagnosis.
	Failures []string `json:"failures,omitempty"`
}

func newReport(workload string, traced bool) *report {
	return &report{Workload: workload, Traced: traced, Values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.Values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// maxFailureNotes bounds report.Failures: enough to diagnose, small enough
// that a systematic failure cannot flood the output.
const maxFailureNotes = 8

// check counts one verified operation; a false ok is a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// count adds operations verified elsewhere (inside a client loop).
func (r *report) count(attempted, failed int, firstFailure string) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 && firstFailure != "" && len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, firstFailure)
	}
}

func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// finish fills ok_share and verifies the pass produced exactly its metric
// set with finite values: a missing metric is a bug in the benchmark.
func (r *report) finish() error {
	if r.Attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", r.Workload)
	}
	if !r.Traced {
		r.set("ok_share", 1-float64(r.Failed)/float64(r.Attempted))
	}
	defs := r.defs()
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, v)
		}
	}
	if len(r.Values) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", r.Workload, len(r.Values), len(defs))
	}
	return nil
}

// print writes every metric by name with its unit, then the detail lines.
func (r *report) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s · %s · attempted %d · failed %d\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, r.Values[d.Name], d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  · %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  ! %s\n", f)
	}
}

// driverLine is the one-object result line the driver reads last.
func (r *report) driverLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = value{r.Values[d.Name], d.Unit}
	}
	return json.Marshal(out)
}

// spreadRow is one metric of one workload across the repetitions of
// -repeat: its extremes, and whether the range resolves the metric's bound.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Min      float64 `json:"min"`
	Median   float64 `json:"median"`
	Max      float64 `json:"max"`
	// Range is (max-min)/median; Bound is the metric's bound (0 for layer
	// metrics, which have none).
	Range float64 `json:"range"`
	Bound float64 `json:"bound"`
	// Unresolved marks a metric whose run-to-run range exceeds its bound:
	// a difference that small cannot be told from noise, so it must not be
	// reported as "unchanged".
	Unresolved bool `json:"unresolved"`
}

func spreadOf(workload string, d metricDef, values []float64) spreadRow {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	row := spreadRow{Workload: workload, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
		Min: s[0], Median: medianFloat(s), Max: s[len(s)-1]}
	if row.Median != 0 {
		row.Range = (row.Max - row.Min) / math.Abs(row.Median)
	}
	row.Unresolved = d.Bound > 0 && row.Range > d.Bound
	return row
}
