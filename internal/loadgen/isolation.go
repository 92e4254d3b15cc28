package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/qos"
	"mapsynth/internal/serve"
)

// The tenant-isolation scenario is the QoS layer's proof harness: an
// abusive batch tenant saturates the shared fair-queue slots while a
// well-behaved interactive tenant keeps issuing single lookups, and the
// verdict compares the victim's contended p99 against its own solo
// baseline measured moments earlier on the same server. If weighted-fair
// admission works, the victim barely notices the bully; if it regresses,
// the ratio blows past the bound and CI fails.

// The scenario's shape is fixed, so every run gates the same thing.
const (
	isoVictim = "interactive"
	isoAbuser = "bulk"
	// Closed-loop worker counts.
	isoVictimConcurrency = 2
	isoAbuserConcurrency = 4
	// isoSlots is the server's shared fair-queue capacity
	// (Options.MaxBatchRows) — small, so the abuser's rows genuinely
	// contend with the victim's lookups.
	isoSlots = 4
	// isoBatchSize is the abuser's NDJSON lines per request.
	isoBatchSize = 32
	// isoAbuserRate / isoAbuserBurst configure the abuser's token bucket:
	// far below what an unpaced closed loop issues, so the abuser's
	// throttle counters must move.
	isoAbuserRate  = 20.0
	isoAbuserBurst = 4
	// Server-side QoS weights.
	isoVictimWeight = 4
	isoAbuserWeight = 1
	// isoMaxP99Ratio bounds contended p99 / solo p99.
	isoMaxP99Ratio = 2.0
	// isoSlackMs is absolute headroom added to the bound. It absorbs
	// scheduler jitter when the solo baseline is sub-millisecond, and —
	// because fair-queue slots are non-preemptive — it must cover one batch
	// row's service time: an interactive request can be head-of-line
	// blocked until the next slot release, so heavier corpora (longer rows)
	// need proportionally more slack.
	isoSlackMs = 15.0
)

// PhaseReport is one tenant's aggregate view of one phase.
type PhaseReport struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Throttled int64   `json:"throttled"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// IsolationResult is the scenario's verdict plus the evidence behind it.
type IsolationResult struct {
	Victim string `json:"victim"`
	Abuser string `json:"abuser"`

	Solo      PhaseReport `json:"solo"`       // victim alone
	Contended PhaseReport `json:"contended"`  // victim beside the abuser
	AbuserRun PhaseReport `json:"abuser_run"` // the abuser's own view

	// P99Ratio is contended p99 / solo p99 — the isolation headline.
	P99Ratio float64 `json:"p99_ratio"`
	// Bound and SlackMs restate the gate the verdict used.
	Bound   float64 `json:"bound"`
	SlackMs float64 `json:"slack_ms"`

	// ServerThrottled is the abuser's server-side throttled counter —
	// proof the quota layer, not luck, contained the bully.
	ServerThrottled int64 `json:"server_throttled"`

	Passed bool `json:"passed"`
	// Failures lists every violated invariant when Passed is false.
	Failures []string `json:"failures,omitempty"`
}

// RunIsolation builds an in-process server over maps with the two tenants
// configured, measures the victim's solo baseline for one phase, then
// reruns the victim beside the abusive batch tenant for another and issues
// the verdict. seed feeds both generators.
func RunIsolation(ctx context.Context, phase time.Duration, seed int64, maps []*mapping.Mapping) (*IsolationResult, error) {
	wl, err := NewWorkload(maps)
	if err != nil {
		return nil, fmt.Errorf("loadgen: isolation workload: %w", err)
	}
	srv := serve.NewFromMappings(maps, serve.Options{
		MaxBatchRows: isoSlots,
		CacheSize:    1024,
		Tenants: []qos.Spec{
			{Name: isoVictim, Weight: isoVictimWeight},
			{Name: isoAbuser, Weight: isoAbuserWeight, Rate: isoAbuserRate, Burst: isoAbuserBurst},
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The victim is purely interactive: single lookups, the op class the
	// fair queue's Interactive band must protect.
	victimCfg := Config{
		BaseURL:     ts.URL,
		Duration:    phase,
		Concurrency: isoVictimConcurrency,
		Mix:         map[string]int{OpLookup: 1},
		Seed:        seed,
		Tenants:     []TenantShare{{Name: isoVictim, Share: 1}},
		Client:      ts.Client(),
	}
	// The abuser floods wide batch streams through the Batch band, unpaced.
	abuserCfg := Config{
		BaseURL:     ts.URL,
		Duration:    phase,
		Concurrency: isoAbuserConcurrency,
		BatchSize:   isoBatchSize,
		Mix:         map[string]int{OpBatchAutoFill: 1},
		Seed:        seed + 1,
		Tenants:     []TenantShare{{Name: isoAbuser, Share: 1}},
		Client:      ts.Client(),
	}

	// Phase 1: the victim's solo baseline.
	soloRep, err := Run(ctx, victimCfg, wl)
	if err != nil {
		return nil, fmt.Errorf("loadgen: isolation solo phase: %w", err)
	}

	// Phase 2: same victim workload, now beside the abuser.
	var (
		wg        sync.WaitGroup
		abuserRep *Report
		abuserErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		abuserRep, abuserErr = Run(ctx, abuserCfg, wl)
	}()
	contendedRep, err := Run(ctx, victimCfg, wl)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("loadgen: isolation contended phase: %w", err)
	}
	if abuserErr != nil {
		return nil, fmt.Errorf("loadgen: isolation abuser run: %w", abuserErr)
	}

	res := &IsolationResult{
		Victim:    isoVictim,
		Abuser:    isoAbuser,
		Solo:      phaseOf(soloRep, isoVictim),
		Contended: phaseOf(contendedRep, isoVictim),
		AbuserRun: phaseOf(abuserRep, isoAbuser),
		Bound:     isoMaxP99Ratio,
		SlackMs:   isoSlackMs,
	}
	res.ServerThrottled = srv.Stats().Tenants[isoAbuser].Throttled
	if res.Solo.P99Ms > 0 {
		res.P99Ratio = res.Contended.P99Ms / res.Solo.P99Ms
	}

	// The verdict: every clause is an isolation invariant, and every
	// violation is listed so a CI failure reads as a diagnosis.
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	if res.Solo.Requests == 0 || res.Contended.Requests == 0 {
		fail("victim issued no requests (solo %d, contended %d)", res.Solo.Requests, res.Contended.Requests)
	}
	if limit := res.Solo.P99Ms*isoMaxP99Ratio + isoSlackMs; res.Contended.P99Ms > limit {
		fail("victim contended p99 %.2fms exceeds %.2fms (solo %.2fms x %.1f + %.0fms slack)",
			res.Contended.P99Ms, limit, res.Solo.P99Ms, isoMaxP99Ratio, isoSlackMs)
	}
	if res.Contended.Errors > 0 {
		fail("victim saw %d errors while contended", res.Contended.Errors)
	}
	if res.Contended.Throttled > 0 {
		fail("victim (unlimited tenant) was throttled %d times", res.Contended.Throttled)
	}
	if res.AbuserRun.Throttled == 0 {
		fail("abuser was never throttled client-side; quota layer inert")
	}
	if res.ServerThrottled == 0 {
		fail("abuser's server-side throttled counter is zero")
	}
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// phaseOf extracts one tenant's aggregate from a run report.
func phaseOf(rep *Report, tenant string) PhaseReport {
	tr := rep.Tenants[tenant]
	return PhaseReport{
		Requests:  tr.Count,
		Errors:    tr.Errors,
		Throttled: tr.Throttled,
		P50Ms:     tr.P50Ms,
		P99Ms:     tr.P99Ms,
	}
}
