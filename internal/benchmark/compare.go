package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The compare gate defends the perf trajectory: every BENCH_N.json is a
// fixed-seed run of the same suite, so a later run regressing a metric past
// tolerance is a real code-level slowdown, not workload drift. Metrics are
// compared as ratios (new/old must stay under 1+tolerance) so one tolerance
// covers nanoseconds, bytes and seconds alike; metrics the old report
// predates (e.g. activation before the v2 format existed) are skipped, so
// the gate tightens automatically as baselines gain sections.

// Regression is one metric that moved past tolerance in the bad direction.
type Regression struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Ratio is new/old; > 1 means worse (every gated metric is
	// lower-is-better).
	Ratio float64 `json:"ratio"`
}

// Compare gates cur against old: every lower-is-better metric present in
// both reports may grow by at most tolerance (0.5 allows 1.5×). It returns
// the offending metrics, empty when the trajectory holds.
func Compare(old, cur *SuiteResult, tolerance float64) []Regression {
	if tolerance <= 0 {
		tolerance = 0.5
	}
	var regs []Regression
	check := func(metric string, o, n float64) {
		switch {
		case n <= 0:
			// Metric absent from the current report; nothing to gate.
		case o <= 0:
			// The baseline section is present but reports zero for a metric
			// the current run measured — a broken or truncated baseline run.
			// Dividing by it would make the ratio Inf/NaN (and silently
			// skipping would un-gate the metric), so fail loudly instead.
			// The 1e9 sentinel ratio sorts it above any real regression.
			regs = append(regs, Regression{
				Metric: metric + " (zero baseline — re-generate the old report)",
				Old:    o, New: n, Ratio: 1e9,
			})
		default:
			if ratio := n / o; ratio > 1+tolerance {
				regs = append(regs, Regression{Metric: metric, Old: o, New: n, Ratio: ratio})
			}
		}
	}

	check("lookup.ns_per_op", float64(old.Lookup.NsPerOp), float64(cur.Lookup.NsPerOp))
	check("lookup.allocs_per_op", float64(old.Lookup.AllocsPerOp), float64(cur.Lookup.AllocsPerOp))
	check("lookup.bytes_per_op", float64(old.Lookup.BytesPerOp), float64(cur.Lookup.BytesPerOp))
	check("snapshot.v2_write_s", old.Snapshot.V2WriteSeconds, cur.Snapshot.V2WriteSeconds)
	check("synthesis.duration_s", old.Synthesis.DurationSeconds, cur.Synthesis.DurationSeconds)

	// Reports up to BENCH_12 list a "v1" activation entry beside "v2".
	actOf := func(r *SuiteResult) *ActivationBench {
		for i := range r.Activation {
			if r.Activation[i].Format == "v2" {
				return &r.Activation[i]
			}
		}
		return nil
	}
	if o, n := actOf(old), actOf(cur); o != nil && n != nil {
		check("activation.v2.open_s", o.OpenSeconds, n.OpenSeconds)
		// Retained-heap bytes are only comparable between same-scale
		// corpora: activation's heap delta is dominated by the lazily
		// materialized mappings the first query happens to touch, which
		// doesn't shrink proportionally with scale (a half-scale CI run
		// can legitimately retain more than the full-scale baseline).
		if old.Corpus.Scale == cur.Corpus.Scale {
			check("activation.v2.heap_alloc_delta_bytes",
				float64(o.HeapAllocDelta), float64(n.HeapAllocDelta))
		}
	}

	// The isolation gate is absolute, not relative: a current report whose
	// scenario failed is a regression regardless of what the old report
	// says, because "the victim's p99 stayed bounded" is a pass/fail
	// property of the new code alone.
	if cur.Isolation != nil && !cur.Isolation.Passed {
		regs = append(regs, Regression{Metric: "isolation.passed", Old: 1, New: 0, Ratio: 1e9})
	}
	if old.Isolation != nil && cur.Isolation != nil {
		check("isolation.contended_p99_ms", old.Isolation.Contended.P99Ms, cur.Isolation.Contended.P99Ms)
	}

	// The cluster gate is likewise absolute: the scenario carries its own
	// scaling and zero-error invariants, so a failed current run is a
	// regression no matter the baseline. The scaling ratio itself is also
	// compared (inverted — ScalingX is higher-is-better) so the margin
	// above the floor cannot quietly erode across PRs.
	if cur.Cluster != nil && !cur.Cluster.Passed {
		regs = append(regs, Regression{Metric: "cluster.passed", Old: 1, New: 0, Ratio: 1e9})
	}
	if old.Cluster != nil && cur.Cluster != nil {
		if o, n := old.Cluster.ScalingX, cur.Cluster.ScalingX; o > 0 && n > 0 {
			check("cluster.scaling_x (inverted)", 1/o, 1/n)
		}
		check("cluster.p99_ms", old.Cluster.Cluster.P99Ms, cur.Cluster.Cluster.P99Ms)
	}

	// The ingest gate mixes both kinds: convergence is absolute (an ingest
	// log that never drains is a bug no baseline can excuse), while lookup
	// latency under ingestion is relative like every other p99.
	if cur.Ingest != nil && !cur.Ingest.Converged {
		regs = append(regs, Regression{Metric: "ingest.converged", Old: 1, New: 0, Ratio: 1e9})
	}
	if old.Ingest != nil && cur.Ingest != nil {
		check("ingest.lookup_p99_ms", old.Ingest.LookupP99Ms, cur.Ingest.LookupP99Ms)
	}

	if old.Serving != nil && cur.Serving != nil {
		ops := make([]string, 0, len(old.Serving.Ops))
		for op := range old.Serving.Ops {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			n, ok := cur.Serving.Ops[op]
			if !ok {
				continue
			}
			check("serving."+op+".p99_ms", old.Serving.Ops[op].P99Ms, n.P99Ms)
		}
	}
	return regs
}

// ReadResult loads a BENCH_N.json report.
func ReadResult(path string) (*SuiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res SuiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("benchmark: parsing %s: %w", path, err)
	}
	return &res, nil
}
