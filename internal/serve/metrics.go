package serve

import (
	"runtime"
	"sync"
	"time"

	"mapsynth/internal/metrics"
	"mapsynth/internal/qos"
	"mapsynth/internal/snapshot"
)

// forEach visits every endpoint's stats under its stable exported name (the
// same names /stats uses), so the metrics exposition and the JSON stats
// surface can never disagree about what an endpoint is called.
func (cs *corpusStats) forEach(fn func(endpoint string, es *endpointStats)) {
	fn("lookup", &cs.lookup)
	fn("autofill", &cs.autofill)
	fn("autocorrect", &cs.autocorrect)
	fn("autojoin", &cs.autojoin)
	fn("batch_autofill", &cs.batchAutofill)
	fn("batch_autocorrect", &cs.batchAutocorrect)
	fn("batch_autojoin", &cs.batchAutojoin)
}

// registerMetrics wires the server's existing counters into the registry as
// scrape-time collectors. Nothing here double-counts: every series reads the
// same atomics /stats reads, so the two surfaces agree by construction. The
// only owned instrument is errorsTotal, because "envelopes written by code"
// is a fact only the error choke points know.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	s.errorsTotal = reg.CounterVec("mapsynth_errors_total",
		"Error envelopes written, by machine-readable envelope code.", "code")

	// Per-corpus, per-endpoint request counters and latency. The series set
	// is dynamic — corpora come and go — so these enumerate the registry at
	// scrape time.
	labels := []string{"corpus", "endpoint"}
	reg.CounterVecFunc("mapsynth_requests_total",
		"Application requests handled, by corpus and endpoint.", labels,
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				c.stats.forEach(func(ep string, es *endpointStats) {
					emit([]string{c.name, ep}, float64(es.requests.Load()))
				})
			}
		})
	reg.CounterVecFunc("mapsynth_request_errors_total",
		"Application requests that answered an error, by corpus and endpoint.", labels,
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				c.stats.forEach(func(ep string, es *endpointStats) {
					emit([]string{c.name, ep}, float64(es.errors.Load()))
				})
			}
		})
	reg.HistogramVecFunc("mapsynth_request_duration_seconds",
		"Application request latency, by corpus and endpoint.", labels,
		func(emit func([]string, metrics.HistogramSnapshot)) {
			for _, c := range s.reg.list() {
				c.stats.forEach(func(ep string, es *endpointStats) {
					if es.requests.Load() == 0 {
						return // don't mint 43 series per endpoint nobody hit
					}
					emit([]string{c.name, ep}, metrics.LatencySnapshot(&es.latency))
				})
			}
		})

	// Batch limiter: admission, rejection, backpressure and row accounting.
	reg.CounterFunc("mapsynth_batch_requests_total",
		"Batch requests admitted past the request bound.",
		func() float64 { return float64(s.batch.requests.Load()) })
	reg.CounterFunc("mapsynth_batch_rejected_total",
		"Batch requests rejected with 429 at the request bound.",
		func() float64 { return float64(s.batch.rejected.Load()) })
	reg.CounterFunc("mapsynth_batch_backpressure_total",
		"Row admissions that had to wait for a row slot (TCP backpressure events).",
		func() float64 { return float64(s.batch.backpressure.Load()) })
	reg.CounterFunc("mapsynth_batch_rows_total",
		"Batch rows completed (result or error line emitted).",
		func() float64 { return float64(s.batch.rows.Load()) })
	reg.CounterFunc("mapsynth_batch_row_errors_total",
		"Batch rows that emitted an error line.",
		func() float64 { return float64(s.batch.rowErrs.Load()) })
	reg.GaugeFunc("mapsynth_batch_in_flight_requests",
		"Batch requests currently being served.",
		func() float64 { return float64(len(s.batch.requestSem)) })
	reg.GaugeFunc("mapsynth_batch_in_flight_rows",
		"Batch rows currently computing.",
		func() float64 { return float64(s.batch.inFlightRows.Load()) })
	reg.GaugeFunc("mapsynth_batch_peak_rows",
		"Highest concurrent batch row count observed.",
		func() float64 { return float64(s.batch.peakRows.Load()) })

	// Per-tenant admission control: request/throttle counters, live queue
	// depth and latency, labeled by tenant (cardinality bounded by
	// maxTrackedTenants — unspecced tenants past the cap share "other").
	reg.CounterVecFunc("mapsynth_tenant_requests_total",
		"Application requests attributed to each tenant.", []string{"tenant"},
		func(emit func([]string, float64)) {
			for _, tn := range s.tenants.list() {
				emit([]string{tn.name}, float64(tn.requests.Load()))
			}
		})
	reg.CounterVecFunc("mapsynth_tenant_throttled_total",
		"Requests rejected 429 quota_exhausted, by tenant.", []string{"tenant"},
		func(emit func([]string, float64)) {
			for _, tn := range s.tenants.list() {
				emit([]string{tn.name}, float64(tn.throttled.Load()))
			}
		})
	reg.CounterVecFunc("mapsynth_tenant_request_errors_total",
		"Application requests that answered an error, by tenant.", []string{"tenant"},
		func(emit func([]string, float64)) {
			for _, tn := range s.tenants.list() {
				emit([]string{tn.name}, float64(tn.errors.Load()))
			}
		})
	reg.GaugeVecFunc("mapsynth_tenant_queue_depth",
		"Requests and batch rows currently waiting in the fair queue, by tenant.", []string{"tenant"},
		func(emit func([]string, float64)) {
			for _, tn := range s.tenants.list() {
				emit([]string{tn.name}, float64(tn.queued.Load()))
			}
		})
	reg.GaugeVecFunc("mapsynth_tenant_weight",
		"Configured weighted-fair share of each tenant.", []string{"tenant"},
		func(emit func([]string, float64)) {
			for _, tn := range s.tenants.list() {
				emit([]string{tn.name}, tn.fairWeight())
			}
		})
	reg.HistogramVecFunc("mapsynth_tenant_request_duration_seconds",
		"Application request latency, by tenant.", []string{"tenant"},
		func(emit func([]string, metrics.HistogramSnapshot)) {
			for _, tn := range s.tenants.list() {
				if tn.latency.Count() == 0 {
					continue // don't mint 43 series per idle tenant
				}
				emit([]string{tn.name}, metrics.LatencySnapshot(&tn.latency))
			}
		})

	// The shared weighted-fair compute-slot queue.
	reg.GaugeFunc("mapsynth_fair_queue_slots",
		"Compute-slot budget the fair queue arbitrates (MaxBatchRows).",
		func() float64 { return float64(s.fair.Capacity()) })
	reg.GaugeFunc("mapsynth_fair_queue_in_use",
		"Fair-queue slots currently held (interactive requests + batch rows).",
		func() float64 { return float64(s.fair.InUse()) })
	reg.GaugeVecFunc("mapsynth_fair_queue_waiting",
		"Waiters queued for a fair-queue slot, by priority class.", []string{"class"},
		func(emit func([]string, float64)) {
			emit([]string{qos.Interactive.String()}, float64(s.fair.Waiting(qos.Interactive)))
			emit([]string{qos.Batch.String()}, float64(s.fair.Waiting(qos.Batch)))
		})

	// Corpus registry: what is loaded, at which version, with how much
	// history to roll back into.
	reg.GaugeFunc("mapsynth_corpora",
		"Corpora currently loaded and visible.",
		func() float64 { return float64(len(s.reg.list())) })
	reg.GaugeVecFunc("mapsynth_corpus_version",
		"Live (serving) version of each corpus.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().Version))
			}
		})
	reg.GaugeVecFunc("mapsynth_corpus_history_depth",
		"Previously live versions held on each corpus's rollback ring.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(len(c.historyVersions())))
			}
		})
	reg.GaugeVecFunc("mapsynth_corpus_mappings",
		"Mappings in each corpus's live state.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().NumMappings()))
			}
		})
	reg.GaugeVecFunc("mapsynth_corpus_snapshot_format",
		"Snapshot format backing each corpus's live state (always 2: every state is a v2 image).", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(snapshot.Version2))
			}
		})
	reg.GaugeVecFunc("mapsynth_corpus_mapped_bytes",
		"Bytes of the snapshot image backing each corpus's live state, mmapped or in process memory.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().MappedBytes()))
			}
		})
	reg.GaugeVecFunc("mapsynth_corpus_activation_seconds",
		"Time each corpus's live state took from snapshot open to query-ready.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, c.state.Load().ActivationSeconds)
			}
		})
	reg.GaugeVecFunc("mapsynth_corpus_pairs",
		"Key-value pairs in each corpus's live state.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().handle.Pairs()))
			}
		})
	reg.CounterVecFunc("mapsynth_corpus_reloads_total",
		"Successful state installs (load, reload, rebuild, upload) per corpus.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.reloads.Load()))
			}
		})

	// Live ingestion: log position, synthesis staleness and incremental-
	// engine effectiveness, per corpus. Absent until the first ingest.
	reg.GaugeVecFunc("mapsynth_ingest_head_lsn",
		"Highest durable LSN in each corpus's ingest log.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, float64(ing.Head()))
			}
		})
	reg.GaugeVecFunc("mapsynth_ingest_applied_lsn",
		"Highest LSN reflected in each corpus's live serving state.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, float64(ing.Applied()))
			}
		})
	reg.GaugeVecFunc("mapsynth_ingest_lag_seconds",
		"Age of the oldest durable-but-unapplied ingest row (0 when caught up).", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, ing.Status().LagSeconds)
			}
		})
	reg.GaugeVecFunc("mapsynth_ingest_log_failed",
		"1 when a corpus's ingest log has failed and refuses appends until a restart, else 0.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				failed := 0.0
				if ing.Status().LogFailed != "" {
					failed = 1
				}
				emit([]string{name}, failed)
			}
		})
	reg.CounterVecFunc("mapsynth_ingest_runs_total",
		"Completed incremental synthesis runs per corpus.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, float64(ing.Status().Runs))
			}
		})
	reg.CounterVecFunc("mapsynth_ingest_run_errors_total",
		"Failed incremental synthesis runs per corpus.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, float64(ing.Status().RunErrors))
			}
		})
	reg.CounterVecFunc("mapsynth_ingest_component_cache_hits_total",
		"Compatibility-graph components reused from the incremental cache.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, float64(ing.Status().CacheHits))
			}
		})
	reg.CounterVecFunc("mapsynth_ingest_component_cache_misses_total",
		"Compatibility-graph components re-synthesized (dirty or cold).", []string{"corpus"},
		func(emit func([]string, float64)) {
			for name, ing := range s.ingest.All() {
				emit([]string{name}, float64(ing.Status().CacheMisses))
			}
		})

	// Lookup result cache of each corpus's live state. The counters reset on
	// reload (each state owns its cache) — rate() across a reload shows the
	// cold-cache dip, which is exactly what an operator wants to see.
	reg.CounterVecFunc("mapsynth_cache_hits_total",
		"Lookup cache hits of the live state, per corpus (resets on reload).", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().cache.hits.Load()))
			}
		})
	reg.CounterVecFunc("mapsynth_cache_misses_total",
		"Lookup cache misses of the live state, per corpus (resets on reload).", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().cache.misses.Load()))
			}
		})
	reg.GaugeVecFunc("mapsynth_cache_entries",
		"Entries currently held by the live state's lookup cache, per corpus.", []string{"corpus"},
		func(emit func([]string, float64)) {
			for _, c := range s.reg.list() {
				emit([]string{c.name}, float64(c.state.Load().cache.len()))
			}
		})

	// Shared worker pool: the per-call fan-out bound and the peak
	// concurrency actually observed across all corpora's sessions.
	reg.GaugeFunc("mapsynth_pool_workers",
		"Per-call fan-out bound of the shared worker pool.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("mapsynth_pool_active_workers",
		"Worker-pool tasks running right now.",
		func() float64 { return float64(s.pool.Active()) })
	reg.GaugeFunc("mapsynth_pool_peak_workers",
		"Peak concurrent worker-pool tasks observed.",
		func() float64 { return float64(s.pool.Peak()) })

	reg.GaugeFunc("mapsynth_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })

	registerRuntimeMetrics(reg)
}

// memStatsCache amortizes runtime.ReadMemStats across scrapes: the read
// stops the world briefly, so hammering /v1/metrics must not turn into a GC
// pause generator. 500ms of staleness is invisible at any sane scrape
// interval.
type memStatsCache struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (c *memStatsCache) get() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.at) > 500*time.Millisecond {
		runtime.ReadMemStats(&c.ms)
		c.at = time.Now()
	}
	return c.ms
}

// registerRuntimeMetrics exports the Go runtime facts an operator actually
// pages on: goroutine count, heap size and GC churn.
func registerRuntimeMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("go_goroutines",
		"Goroutines currently live.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	var msc memStatsCache
	reg.GaugeFunc("go_memstats_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(msc.get().HeapAlloc) })
	reg.GaugeFunc("go_memstats_heap_inuse_bytes",
		"Bytes in in-use heap spans.",
		func() float64 { return float64(msc.get().HeapInuse) })
	reg.GaugeFunc("go_memstats_sys_bytes",
		"Bytes obtained from the OS.",
		func() float64 { return float64(msc.get().Sys) })
	reg.GaugeFunc("go_memstats_heap_objects",
		"Allocated heap objects.",
		func() float64 { return float64(msc.get().HeapObjects) })
	reg.CounterFunc("go_memstats_alloc_bytes_total",
		"Cumulative bytes allocated for heap objects.",
		func() float64 { return float64(msc.get().TotalAlloc) })
	reg.CounterFunc("go_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return float64(msc.get().NumGC) })
	reg.CounterFunc("go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(msc.get().PauseTotalNs) / 1e9 })
}
