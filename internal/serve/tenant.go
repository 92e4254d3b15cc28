package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapsynth/internal/latency"
	"mapsynth/internal/qos"
	"mapsynth/pkg/client"
)

// Multi-tenant admission control. A request names its tenant with the
// X-Tenant header (absent means the "default" tenant). Admission is two
// layers deep:
//
//   - a per-tenant token bucket throttles request *rate*: over-quota
//     requests answer 429 quota_exhausted with an honest Retry-After
//     derived from the bucket's refill math;
//   - the weighted-fair queue (qos.FairQueue) arbitrates the shared
//     compute-slot budget (Options.MaxBatchRows) across admitted work:
//     interactive single-query requests hold one slot for their handler's
//     duration in the Interactive band, batch rows take one slot each in
//     the Batch band — so interactive traffic preempts batch rows at every
//     slot release, and within a band tenants share in proportion to
//     their configured weights.

// DefaultTenant is the tenant requests without an X-Tenant header belong
// to.
const DefaultTenant = "default"

// maxTrackedTenants bounds the tenant map (and with it the metric label
// cardinality): tenants beyond the cap that have no explicit spec share
// the "other" bucket's quota and counters.
const maxTrackedTenants = 256

// overflowTenant aggregates tenants past maxTrackedTenants.
const overflowTenant = "other"

// tenantLimits is one tenant's swappable QoS configuration: the weight,
// the token bucket, and the bucket's configured refill mirrored for
// snapshots (the bucket itself only answers Take). It sits behind an
// atomic pointer so POST /v1/tenants (and SIGHUP) can re-apply specs
// without restart while admission reads race-free; counters live on the
// tenant itself and survive a limits swap.
type tenantLimits struct {
	weight int
	bucket *qos.Bucket
	rate   float64 // requests/second; 0 unlimited
}

// tenant is one tenant's admission state and counters.
type tenant struct {
	name   string
	limits atomic.Pointer[tenantLimits]

	requests  atomic.Int64 // requests attributed to this tenant
	throttled atomic.Int64 // requests rejected 429 quota_exhausted
	errors    atomic.Int64 // application requests that answered an error
	queued    atomic.Int64 // gauge: requests/rows waiting in the fair queue
	latency   latency.Histogram
}

// fairWeight is the tenant's current weighted-fair share, read on every
// slot acquisition.
func (tn *tenant) fairWeight() float64 { return float64(tn.limits.Load().weight) }

func (tn *tenant) observe(d time.Duration, failed bool) {
	if failed {
		tn.errors.Add(1)
	}
	tn.latency.Observe(d)
}

// tenantSet resolves X-Tenant header values to tenants, creating entries
// on first sight from the wildcard template (or unlimited weight-1 when no
// template is configured).
type tenantSet struct {
	mu       sync.RWMutex
	byName   map[string]*tenant
	template qos.Spec // the "*" spec; zero value means no template
	hasTmpl  bool
}

func newTenantSet(specs []qos.Spec) *tenantSet {
	ts := &tenantSet{byName: make(map[string]*tenant)}
	for _, sp := range specs {
		if sp.Name == "*" {
			ts.template, ts.hasTmpl = sp, true
			continue
		}
		ts.byName[sp.Name] = newTenant(sp)
	}
	if _, ok := ts.byName[DefaultTenant]; !ok {
		ts.byName[DefaultTenant] = ts.mint(DefaultTenant)
	}
	return ts
}

func newTenant(sp qos.Spec) *tenant {
	tn := &tenant{name: sp.Name}
	tn.limits.Store(limitsFor(sp))
	return tn
}

func limitsFor(sp qos.Spec) *tenantLimits {
	return &tenantLimits{weight: sp.Weight, bucket: sp.NewBucketFor(), rate: sp.Rate}
}

// mintSpec is the spec a tenant with no explicit entry gets: the wildcard
// template's limits when one is configured, unlimited weight 1 otherwise.
// Callers hold ts.mu (any mode).
func (ts *tenantSet) mintSpec(name string) qos.Spec {
	sp := qos.Spec{Name: name, Weight: 1}
	if ts.hasTmpl {
		sp = ts.template
		sp.Name = name
	}
	return sp
}

// mint builds a tenant with no explicit spec from the template.
func (ts *tenantSet) mint(name string) *tenant {
	return newTenant(ts.mintSpec(name))
}

// reconfigure re-applies a full spec table without restart: named tenants
// get their new spec's limits, existing tenants absent from the new table
// are re-minted from the new template (or unlimited weight-1 when none),
// and new named specs create their tenants eagerly. Counters, histograms
// and queue gauges persist across the swap — a quota change must not erase
// a tenant's history — and in-flight admissions race harmlessly against
// the atomic limits pointer.
func (ts *tenantSet) reconfigure(specs []qos.Spec) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	byName := make(map[string]qos.Spec, len(specs))
	ts.template, ts.hasTmpl = qos.Spec{}, false
	for _, sp := range specs {
		if sp.Name == "*" {
			ts.template, ts.hasTmpl = sp, true
			continue
		}
		byName[sp.Name] = sp
	}
	for name, tn := range ts.byName {
		sp, ok := byName[name]
		if !ok {
			sp = ts.mintSpec(name)
		}
		tn.limits.Store(limitsFor(sp))
		delete(byName, name)
	}
	for name, sp := range byName {
		if len(ts.byName) >= maxTrackedTenants {
			break
		}
		ts.byName[name] = newTenant(sp)
	}
}

// resolve maps a header value to its tenant, creating one on first sight.
// Invalid names are rejected rather than minted — the name becomes a
// metric label and a log field, so it must stay within the bounded
// charset.
func (ts *tenantSet) resolve(header string) (*tenant, error) {
	name := header
	if name == "" {
		name = DefaultTenant
	} else if !qos.ValidTenantName(name) {
		return nil, fmt.Errorf("invalid X-Tenant %q: want [A-Za-z0-9._-]{1,64}", header)
	}
	ts.mu.RLock()
	tn := ts.byName[name]
	ts.mu.RUnlock()
	if tn != nil {
		return tn, nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tn := ts.byName[name]; tn != nil {
		return tn, nil
	}
	if len(ts.byName) >= maxTrackedTenants {
		name = overflowTenant
		if tn := ts.byName[name]; tn != nil {
			return tn, nil
		}
	}
	tn = ts.mint(name)
	ts.byName[name] = tn
	return tn, nil
}

// list returns the tenants in name order — the stable enumeration /stats
// and the metrics exposition share.
func (ts *tenantSet) list() []*tenant {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]*tenant, 0, len(ts.byName))
	for _, tn := range ts.byName {
		out = append(out, tn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// admitTenant resolves the request's tenant and charges one token against
// its bucket; a false return means the 429 (or 400 for a malformed
// header) has been written. Every application request — single-query and
// batch alike — costs one token; batch *rows* are arbitrated by the fair
// queue, not the bucket, so a batch request's cost in quota terms is one.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	tn, err := s.tenants.resolve(r.Header.Get("X-Tenant"))
	if err != nil {
		writeError(w, r, client.CodeBadRequest, err.Error())
		return nil, false
	}
	noteTenant(r, tn)
	tn.requests.Add(1)
	if ok, retry := tn.limits.Load().bucket.Take(); !ok {
		tn.throttled.Add(1)
		writeQuotaExhausted(w, r, retry,
			fmt.Sprintf("tenant %q rate limit exhausted, retry later", tn.name))
		return nil, false
	}
	return tn, true
}

// tenantFrom returns the tenant admitTenant resolved for this request,
// falling back to the default tenant when the middleware did not run
// (direct handler tests).
func (s *Server) tenantFrom(r *http.Request) *tenant {
	if m := metaFrom(r); m != nil && m.tenant != nil {
		return m.tenant
	}
	tn, _ := s.tenants.resolve("")
	return tn
}

// snapshot is the tenant's /v1/stats entry.
func (tn *tenant) snapshot() client.TenantStats {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	lim := tn.limits.Load()
	return client.TenantStats{
		Weight:     lim.weight,
		RateLimit:  lim.rate,
		Requests:   tn.requests.Load(),
		Throttled:  tn.throttled.Load(),
		Errors:     tn.errors.Load(),
		QueueDepth: tn.queued.Load(),
		MeanMs:     ms(tn.latency.Mean()),
		P50Ms:      ms(tn.latency.Percentile(0.50)),
		P95Ms:      ms(tn.latency.Percentile(0.95)),
		P99Ms:      ms(tn.latency.Percentile(0.99)),
	}
}

// tenantSnapshots assembles the /stats tenants section.
func (s *Server) tenantSnapshots() map[string]client.TenantStats {
	out := make(map[string]client.TenantStats)
	for _, tn := range s.tenants.list() {
		out[tn.name] = tn.snapshot()
	}
	return out
}

// FairQueueSnapshot is the /stats view of the shared weighted-fair queue.
type FairQueueSnapshot struct {
	Slots              int `json:"slots"`
	InUse              int `json:"in_use"`
	BatchInUse         int `json:"batch_in_use"`
	BatchLimit         int `json:"batch_limit"`
	WaitingInteractive int `json:"waiting_interactive"`
	WaitingBatch       int `json:"waiting_batch"`
}

func (s *Server) fairSnapshot() FairQueueSnapshot {
	return FairQueueSnapshot{
		Slots:              s.fair.Capacity(),
		InUse:              s.fair.InUse(),
		BatchInUse:         s.fair.BatchInUse(),
		BatchLimit:         s.fair.BatchLimit(),
		WaitingInteractive: s.fair.Waiting(qos.Interactive),
		WaitingBatch:       s.fair.Waiting(qos.Batch),
	}
}
