package serve

import (
	"sync/atomic"
	"time"

	"mapsynth/internal/latency"
	"mapsynth/pkg/client"
)

// endpointStats aggregates per-endpoint request counts and latency. The
// histogram (shared with cmd/loadgen via internal/latency) buckets in
// powers of two microseconds, so server-side and client-side percentiles
// of one run are directly comparable.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	latency  latency.Histogram
}

func (e *endpointStats) observe(d time.Duration, failed bool) {
	e.requests.Add(1)
	if failed {
		e.errors.Add(1)
	}
	e.latency.Observe(d)
}

func (e *endpointStats) snapshot() client.EndpointStats {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return client.EndpointStats{
		Requests: e.requests.Load(),
		Errors:   e.errors.Load(),
		MeanMs:   ms(e.latency.Mean()),
		P50Ms:    ms(e.latency.Percentile(0.50)),
		P95Ms:    ms(e.latency.Percentile(0.95)),
		P99Ms:    ms(e.latency.Percentile(0.99)),
	}
}
