// Package serve is the online half of the index-once/serve-many split: it
// loads snapshots written by cmd/synthesize into read-only containment
// indexes and serves the paper's three end-user applications —
// auto-fill, auto-correct, auto-join (Section 4.3) — plus single-key lookup
// over HTTP. One process serves many named corpora (a registry of
// name → state), each behind an atomic.Pointer so a snapshot load, an
// activate or a rollback swaps that corpus's entire mapping set, index and
// result cache in one pointer store while in-flight queries keep reading
// the state they started with. The unscoped paths (/v1/lookup, …) are
// byte-identical aliases for the "default" corpus's scoped paths
// (/v1/corpora/default/lookup, …).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"mapsynth/internal/apps"
	"mapsynth/internal/index"
	"mapsynth/internal/ingest"
	"mapsynth/internal/mapping"
	"mapsynth/internal/metrics"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/pool"
	"mapsynth/internal/qos"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
	"mapsynth/pkg/client"
)

// Options configures a Server.
type Options struct {
	// SnapshotPath is the snapshot file loaded as the default corpus and
	// the default target of its reloads.
	SnapshotPath string
	// Corpora maps additional corpus names to snapshot paths loaded at
	// construction. Names must match [A-Za-z0-9._-]{1,64} and must not be
	// "default" (that one comes from SnapshotPath).
	Corpora map[string]string
	// CacheSize bounds each corpus state's lookup result cache (entries);
	// < 1 disables it.
	CacheSize int
	// Workers bounds the per-call fan-out of every corpus's query
	// sessions (one multi-query request uses at most Workers goroutines);
	// it is not a server-wide concurrency cap — cross-request admission on
	// the batch endpoints comes from MaxBatchRequests/MaxBatchRows. < 1
	// selects GOMAXPROCS.
	Workers int
	// HistoryDepth bounds each corpus's rollback ring: how many previously
	// live states stay activatable. < 1 selects 4.
	HistoryDepth int
	// MaxUploadBytes bounds PUT /v1/corpora/{name} snapshot-upload bodies;
	// beyond it the request answers a structured 413 payload_too_large.
	// <= 0 selects the batch body bound (256 MiB).
	MaxUploadBytes int64
	// MaxBatchRequests bounds concurrently served /batch/* requests across
	// all corpora; beyond it requests are rejected with 429 + Retry-After.
	// <= 0 selects 32.
	MaxBatchRequests int
	// MaxBatchRows bounds concurrently computing batch rows across all
	// /batch/* requests and corpora; at the bound the server stops decoding
	// request bodies (TCP backpressure) rather than buffering or dropping
	// rows. <= 0 selects 256.
	MaxBatchRows int
	// BatchWriteTimeout bounds how long one batch response line may sit
	// unread by the client before the stream is abandoned. Rows hold their
	// limiter slots until the writer takes their line, so without this
	// bound a single client that stops reading could pin the global row
	// budget forever. <= 0 selects 30s.
	BatchWriteTimeout time.Duration
	// Tenants configures per-tenant admission control (weights, token-
	// bucket rate limits) for the X-Tenant header; parse the operator
	// grammar with qos.ParseSpecs. The special name "*" is the template
	// applied to tenants with no explicit spec; without it, unknown
	// tenants get weight 1 and no rate limit. Nil leaves every tenant
	// unlimited — the weighted-fair queue still arbitrates slots, so
	// interactive traffic preempts batch rows even on an unconfigured
	// server.
	Tenants []qos.Spec
	// TenantSource, when non-nil, re-supplies the tenant specs on SIGHUP
	// (e.g. re-reading a -tenants @file), so quota changes apply without a
	// restart; POST /v1/tenants covers the API-driven path.
	TenantSource func() ([]qos.Spec, error)
	// Madvise is the page-cache preload hint applied to every v2 snapshot
	// region right after mmap (snapshot.AdviseWillNeed or AdviseRandom);
	// empty applies none. Surfaced per corpus in /v1/corpora metadata.
	Madvise snapshot.Advice
	// IngestDir is where POST /v1/corpora/{name}/tables persists each
	// corpus's append log (<name>.mlog). Empty disables ingestion: the
	// endpoint answers 422, since an acknowledged row must be durable.
	IngestDir string
	// Tables is the table corpus the default corpus's snapshot was
	// synthesized from: the base its ingested tables extend, and with the
	// applied ones what POST /v1/reload {"rebuild":true} re-synthesizes.
	// Other corpora ingest base-less, stacked on their frozen served set.
	Tables []*table.Table
	// Synthesis is the pipeline configuration of rebuilds and ingestion,
	// the one the snapshot was synthesized with; nil selects
	// pipeline.DefaultConfig() with Workers from Workers.
	Synthesis *pipeline.Config
	// Metrics is the registry the server exports its operational state into
	// and serves at GET /v1/metrics. Nil builds a private registry — the
	// endpoint always answers; pass a shared registry to co-export other
	// subsystems on the same page; with Tables, the rebuild pipeline's
	// stage metrics.
	Metrics *metrics.Registry
	// Logger receives one structured access-log line per request plus
	// operational events (SIGHUP reloads). Nil discards logs, keeping tests
	// and embedders quiet by default.
	Logger *slog.Logger
}

// wireFormat is what the "format" field of /v1/corpora, /v1/stats and
// healthz reports: every state is a v2 image; the field stays on the wire
// so response envelopes and SDK types do not change.
const wireFormat = "v2"

// State is one immutable loaded corpus version: a v2 snapshot image (an
// mmapped file, or built in process memory from mappings, an upload or a
// legacy v1 file), the containment index reading it in place, the
// apps.Session answering queries against it, and the result cache that is
// only valid against this mapping set. A corpus swaps its whole State
// atomically on load/activate/rollback; superseded states stay on the
// corpus's bounded history ring so they can be re-activated.
type State struct {
	Path     string
	LoadedAt time.Time
	// Version is the corpus-scoped monotonically increasing install
	// number; activate/rollback re-expose old versions without minting new
	// ones, so a version identifies one immutable state forever.
	Version int64
	// Index answers containment queries out of the image; mappings
	// materialize lazily on first hit.
	Index *index.MappingIndex
	// ActivationSeconds is how long this state took from snapshot open (or
	// image encode) to query-ready.
	ActivationSeconds float64
	// Madvise is the page-cache hint applied to this state's mapped region
	// ("willneed" or "random"); empty when none was applied.
	Madvise string
	// handle is the image: materialized mappings hold zero-copy views into
	// it and must not outlive it.
	handle  *snapshot.Handle
	session *apps.Session
	cache   *lruCache
}

// NumMappings returns the number of mappings in the state.
func (st *State) NumMappings() int { return st.handle.Len() }

// MappedBytes returns the size of the state's snapshot image, mmapped or in
// process memory.
func (st *State) MappedBytes() int64 { return st.handle.MappedBytes() }

// imageCRC returns the whole-file CRC of the state's snapshot image — its
// content identity across nodes, whose version counters are unrelated.
func (st *State) imageCRC() uint32 { return st.handle.CRC() }

// serveDefaults are the documented server-side defaults applied to omitted
// request parameters, installed on every state's Session.
var serveDefaults = apps.Defaults{MinCoverage: 0.8, MinEach: 2}

// Server is the HTTP mapping service.
type Server struct {
	opts  Options
	start time.Time
	reg   *registry
	// pool is the worker pool configuration every corpus's sessions share
	// (per-call fan-out bound and one peak-concurrency gauge); cross-
	// request admission is the batch limiter's job.
	pool *pool.Pool
	// batch is the one admission limiter shared by every corpus's /batch/*
	// endpoints.
	batch *batchLimiter
	// fair arbitrates the shared compute-slot budget (MaxBatchRows slots)
	// across tenants: interactive requests hold one slot in the strictly-
	// preempting Interactive band, batch rows one each in the Batch band.
	fair *qos.FairQueue
	// tenants resolves X-Tenant headers to per-tenant buckets, weights and
	// counters.
	tenants *tenantSet
	// ingest owns the per-corpus append logs and incremental synthesis
	// engines behind POST /v1/corpora/{name}/tables.
	ingest *ingest.Manager
	// rebuild is the instrumented engine of {"rebuild":true} reloads, nil
	// without Options.Tables; rebuilding rejects overlapping ones.
	rebuild    *pipeline.Engine
	rebuilding atomic.Bool
	// metrics is the exposition registry (never nil; a private one is built
	// when Options.Metrics is unset), logger the structured access/event
	// logger (never nil; discards when unset).
	metrics *metrics.Registry
	logger  *slog.Logger
	// errorsTotal counts error envelopes written, by envelope code — the one
	// owned instrument; everything else is collected from existing state.
	errorsTotal *metrics.CounterVec
}

// Request body bounds: maxBodyBytes on the single-column POST endpoints,
// maxBatchBodyBytes on the streaming /batch/* and ingest endpoints, which
// legitimately carry much larger payloads.
const (
	maxBodyBytes      = 8 << 20
	maxBatchBodyBytes = 256 << 20
)

// newServer applies option defaults and builds the request-handling shell
// shared by both constructors; the caller installs the first state.
func newServer(opts Options) *Server {
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = maxBatchBodyBytes
	}
	if opts.BatchWriteTimeout <= 0 {
		opts.BatchWriteTimeout = 30 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.New()
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.MaxBatchRows < 1 {
		opts.MaxBatchRows = 256
	}
	s := &Server{
		opts:    opts,
		start:   time.Now(),
		reg:     newRegistry(opts.HistoryDepth),
		pool:    pool.New(opts.Workers),
		batch:   newBatchLimiter(opts.MaxBatchRequests),
		fair:    qos.NewFairQueue(opts.MaxBatchRows),
		tenants: newTenantSet(opts.Tenants),
		ingest:  ingest.NewManager(),
		metrics: opts.Metrics,
		logger:  opts.Logger,
	}
	s.registerMetrics(s.metrics)
	if len(opts.Tables) > 0 {
		s.rebuild = pipeline.New(s.synthesisConfig())
		s.rebuild.SetInstrumentation(pipeline.MetricsInstrumentation(s.metrics))
	}
	return s
}

// New loads the snapshot at opts.SnapshotPath as the default corpus, plus
// every entry of opts.Corpora, recovers every served corpus's append log
// under opts.IngestDir (see recoverIngest), and returns a ready server.
func New(opts Options) (*Server, error) {
	s := newServer(opts)
	if _, err := s.LoadCorpusContext(context.Background(), DefaultCorpus, opts.SnapshotPath); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(opts.Corpora))
	for name := range opts.Corpora {
		if name == DefaultCorpus {
			return nil, fmt.Errorf("serve: corpus %q comes from SnapshotPath, not Corpora", DefaultCorpus)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := s.LoadCorpusContext(context.Background(), name, opts.Corpora[name]); err != nil {
			return nil, err
		}
	}
	if err := s.recoverIngest(); err != nil {
		s.Close() // the logs recovered before the failing one
		return nil, err
	}
	return s, nil
}

// NewFromMappings builds a server whose default corpus is an in-memory
// mapping set — the entry point for tests, examples and benchmarks that
// skip the snapshot file. It panics if the mappings cannot be laid out as a
// snapshot image (a section past 4 GiB).
func NewFromMappings(maps []*mapping.Mapping, opts Options) *Server {
	s := newServer(opts)
	if _, err := s.installMappings(DefaultCorpus, maps, opts.SnapshotPath); err != nil {
		panic(err)
	}
	return s
}

// installMappings lays maps out as a v2 image in process memory and swaps
// it in as the named corpus's next version.
func (s *Server) installMappings(name string, maps []*mapping.Mapping, path string) (*State, error) {
	t0 := time.Now()
	h, err := snapshot.FromMappings(maps)
	if err != nil {
		return nil, err
	}
	return s.swapIn(name, s.newState(h, path, t0)), nil
}

// newState assembles one immutable serving state (index, session, cache)
// over a snapshot image, off to the side; the caller swaps it in. The index
// reads postings, value tables and right-column Bloom bits straight out of
// the image, so construction is O(1) in the corpus size. t0 is when
// activation began.
func (s *Server) newState(h *snapshot.Handle, path string, t0 time.Time) *State {
	st := &State{
		Path:     path,
		LoadedAt: time.Now(),
		Index:    index.FromSource(h),
		handle:   h,
		cache:    newLRU(s.opts.CacheSize),
	}
	if s.opts.Madvise != snapshot.AdviseNone && h.Mapped() {
		if err := h.Advise(s.opts.Madvise); err != nil {
			s.logger.Warn("madvise failed", "advice", string(s.opts.Madvise), "error", err)
		} else {
			st.Madvise = string(s.opts.Madvise)
		}
	}
	st.session = apps.NewSession(st.Index,
		apps.WithDefaults(serveDefaults),
		apps.WithPool(s.pool))
	st.ActivationSeconds = time.Since(t0).Seconds()
	return st
}

// RebuildContext re-synthesizes the default corpus from Options.Tables plus
// every table it has ingested and applied, swaps the result in and returns
// the default corpus's live state. Cancelling ctx aborts the pipeline run
// promptly and leaves the serving state untouched.
func (s *Server) RebuildContext(ctx context.Context) (*State, error) {
	if s.rebuild == nil {
		return nil, errors.New("serve: no rebuild source configured")
	}
	// Unlike snapshot reloads (cheap, block-and-win), a rebuild is a full
	// pipeline run: overlapping requests are rejected rather than queued so
	// clients cannot stack unbounded CPU-bound runs.
	if !s.rebuilding.CompareAndSwap(false, true) {
		return nil, errors.New("serve: a rebuild is already in progress")
	}
	defer s.rebuilding.Store(false)
	if s.opts.IngestDir != "" {
		// Under the ingestor's run lock the applied rows cannot move, and
		// its publish takes the write lock in the order ingest runs do.
		ing, err := s.ingestorFor(DefaultCorpus)
		if err == nil {
			err = ing.Rebuild(ctx, s.rebuild)
		}
		if err != nil {
			return nil, err
		}
		return s.State(), nil
	}
	res, err := s.rebuild.Run(ctx, s.opts.Tables)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		// The image is the snapshot's own synthesis: keep its path.
		err = s.publish(DefaultCorpus, true, func() (*snapshot.Handle, error) { return snapshot.FromMappings(res.Mappings) })
	}
	if err != nil {
		return nil, err
	}
	return s.State(), nil
}

// State returns the default corpus's currently serving state.
func (s *Server) State() *State { return s.CorpusState(DefaultCorpus) }

// appHandler answers one application request against a resolved corpus;
// the bool reports success (failures count as endpoint errors).
type appHandler func(c *corpus, w http.ResponseWriter, r *http.Request) bool

// corpusResolver names the corpus a request targets: the fixed default for
// unscoped paths, the {name} path value for /v1/corpora/{name}/ paths.
type corpusResolver func(r *http.Request) string

func defaultResolver(*http.Request) string { return DefaultCorpus }
func pathResolver(r *http.Request) string  { return r.PathValue("name") }

// Handler returns the service's HTTP routes, all under /v1/: every
// application endpoint exists corpus-scoped at /v1/corpora/{name}/..., and
// the unscoped /v1/... spelling answers byte-identically for the "default"
// corpus (parity-tested). Unknown paths answer a structured JSON 404, and
// unknown corpus names a structured corpus_not_found, so the service
// speaks JSON on every path. Every request gets an X-Request-ID, echoed in
// error envelopes, /stats and batch trailers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// app mounts one application endpoint twice — unscoped for the default
	// corpus and corpus-scoped — both sharing the handler and so the
	// corpus's endpointStats. class places the endpoint's work on the fair
	// queue: Interactive requests hold one slot for the handler's
	// duration; Batch endpoints admit per-row inside streamBatch.
	app := func(path string, pick func(*corpusStats) *endpointStats, class qos.Class, h appHandler) {
		mux.HandleFunc("/v1"+path, s.timedApp(defaultResolver, pick, class, h))
		mux.HandleFunc("/v1/corpora/{name}"+path, s.timedApp(pathResolver, pick, class, h))
	}
	mux.Handle("/v1/metrics", s.getOnly(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Handler().ServeHTTP(w, r)
	}))
	mux.HandleFunc("/v1/healthz", s.getOnly(s.handleHealthz))
	mux.HandleFunc("/v1/stats", s.getOnly(s.withCorpus(defaultResolver, s.handleStats)))
	mux.HandleFunc("/v1/corpora/{name}/stats", s.getOnly(s.withCorpus(pathResolver, s.handleStats)))
	mux.HandleFunc("/v1/reload", s.handleReload)
	app("/lookup", func(cs *corpusStats) *endpointStats { return &cs.lookup }, qos.Interactive, s.handleLookup)
	app("/autofill", func(cs *corpusStats) *endpointStats { return &cs.autofill }, qos.Interactive, s.handleAutoFill)
	app("/autocorrect", func(cs *corpusStats) *endpointStats { return &cs.autocorrect }, qos.Interactive, s.handleAutoCorrect)
	app("/autojoin", func(cs *corpusStats) *endpointStats { return &cs.autojoin }, qos.Interactive, s.handleAutoJoin)
	app("/batch/autofill", func(cs *corpusStats) *endpointStats { return &cs.batchAutofill }, qos.Batch, s.handleBatchAutoFill)
	app("/batch/autocorrect", func(cs *corpusStats) *endpointStats { return &cs.batchAutocorrect }, qos.Batch, s.handleBatchAutoCorrect)
	app("/batch/autojoin", func(cs *corpusStats) *endpointStats { return &cs.batchAutojoin }, qos.Batch, s.handleBatchAutoJoin)
	// Corpus lifecycle administration.
	mux.HandleFunc("/v1/corpora", s.getOnly(s.handleCorporaList))
	mux.HandleFunc("/v1/corpora/{name}", s.handleCorpusResource)
	mux.HandleFunc("/v1/corpora/{name}/activate", s.handleActivate)
	mux.HandleFunc("/v1/corpora/{name}/rollback", s.handleRollback)
	mux.HandleFunc("/v1/corpora/{name}/snapshot", s.getOnly(s.withCorpus(pathResolver, s.handleCorpusSnapshot)))
	mux.HandleFunc("/v1/corpora/{name}/tables", s.handleIngestTables)
	// Tenant-quota administration.
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	routed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern == "" {
			writeError(w, r, client.CodeNotFound, "no such endpoint: "+r.URL.Path)
			return
		}
		mux.ServeHTTP(w, r)
	})
	return withRequestID(s.instrument(mux, routed))
}

// getOnly guards a read-only endpoint against non-GET methods with a JSON
// 405, mirroring readBody's POST enforcement on the mutation endpoints.
func (s *Server) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, r, client.CodeMethodNotAllowed, "GET required")
			return
		}
		h(w, r)
	}
}

// resolveCorpus maps a request's corpus name to its live corpus. A missing
// default corpus answers 503 not_ready (the pre-multi-corpus contract for
// an empty server); any other missing name answers 404 corpus_not_found.
func (s *Server) resolveCorpus(w http.ResponseWriter, r *http.Request, name string) (*corpus, bool) {
	noteCorpus(r, name)
	if c := s.reg.get(name); c != nil {
		return c, true
	}
	if name == DefaultCorpus {
		writeError(w, r, client.CodeNotReady, "no snapshot loaded yet")
	} else {
		writeError(w, r, client.CodeCorpusNotFound, fmt.Sprintf("no such corpus: %q", name))
	}
	return nil, false
}

// withCorpus adapts a corpus-parameterized handler into an http.HandlerFunc
// by resolving the request's corpus first.
func (s *Server) withCorpus(resolve corpusResolver, h func(c *corpus, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.resolveCorpus(w, r, resolve(r))
		if !ok {
			return
		}
		h(c, w, r)
	}
}

// timedApp is withCorpus plus tenant admission and per-corpus/per-tenant
// request counting and latency observation. The flow per request: resolve
// the tenant and charge its token bucket (429 quota_exhausted when
// empty), resolve the corpus, then — for Interactive endpoints — hold one
// fair-queue slot for the handler's duration so single-query requests
// compete with (and preempt) batch rows on the shared slot budget.
func (s *Server) timedApp(resolve corpusResolver, pick func(*corpusStats) *endpointStats, class qos.Class, h appHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, ok := s.admitTenant(w, r)
		if !ok {
			return
		}
		c, ok := s.resolveCorpus(w, r, resolve(r))
		if !ok {
			return
		}
		es := pick(&c.stats)
		t0 := time.Now()
		okReq := s.runApp(tn, class, c, w, r, h)
		d := time.Since(t0)
		es.observe(d, !okReq)
		tn.observe(d, !okReq)
	}
}

// runApp runs the handler with its fair-queue slot held for Interactive
// endpoints; Batch endpoints admit per row inside streamBatch instead, so
// one slow batch never pins a slot across its whole stream.
func (s *Server) runApp(tn *tenant, class qos.Class, c *corpus, w http.ResponseWriter, r *http.Request, h appHandler) bool {
	if class == qos.Interactive {
		tn.queued.Add(1)
		err := s.fair.Acquire(r.Context(), tn.name, tn.fairWeight(), qos.Interactive)
		tn.queued.Add(-1)
		if err != nil {
			return writeError(w, r, client.CodeInternal, "request cancelled while queued")
		}
		defer s.fair.Release(qos.Interactive)
	}
	return h(c, w, r)
}

// Run serves on addr until ctx is cancelled, then drains in-flight requests
// (graceful shutdown). While running, SIGHUP triggers a snapshot hot reload
// of every corpus's current snapshot path — the conventional "re-read your
// data" signal for long-running daemons.
func (s *Server) Run(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	done := make(chan struct{})
	defer close(done)
	drained := make(chan struct{})
	go func() {
		for {
			select {
			case <-hup:
				if s.opts.TenantSource != nil {
					if specs, err := s.opts.TenantSource(); err != nil {
						s.logger.Error("sighup tenant reload failed", "error", err)
					} else {
						s.SetTenants(specs)
						s.logger.Info("sighup tenant reload", "specs", qos.FormatSpecs(specs))
					}
				}
				if err := s.ReloadAll(context.Background()); err != nil {
					s.logger.Error("sighup reload failed", "error", err)
				} else {
					for _, c := range s.reg.list() {
						st := c.state.Load()
						s.logger.Info("sighup reload",
							"corpus", c.name, "snapshot", st.Path,
							"mappings", st.NumMappings(), "version", st.Version)
					}
				}
			case <-ctx.Done():
				shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				hs.Shutdown(shutCtx)
				close(drained)
				return
			case <-done:
				return
			}
		}
	}()
	err := hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		// Shutdown closes the listener first, failing ListenAndServe while
		// in-flight requests are still draining; wait for the drain itself.
		<-drained
		s.Close()
		return nil
	}
	return err
}

// Close releases background resources — today the per-corpus ingestors and
// their append-log file handles. Run calls it on graceful shutdown; embedders
// (and tests) that never call Run should Close the server themselves. Queries
// against a closed server still work; only ingestion stops.
func (s *Server) Close() {
	s.ingest.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) bool {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status < 400
}

// singleCall rejects the batch-only "id" on a single-call body, with the
// message the strict decoder gives any unknown field.
func singleCall(w http.ResponseWriter, r *http.Request, id string) bool {
	if id == "" {
		return true
	}
	writeError(w, r, client.CodeBadRequest, `bad request body: json: unknown field "id"`)
	return false
}

// readBody decodes a JSON request body into v, rejecting unknown fields so
// client typos fail loudly instead of silently using defaults.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, r, client.CodeMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, r, client.CodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// ---- lookup ----

// Lookup answers a single-key query against the default corpus; see
// lookupIn.
func (s *Server) Lookup(key string) client.LookupResponse {
	st := s.State()
	if st == nil {
		return client.LookupResponse{Found: false, Key: key}
	}
	return lookupIn(st, key)
}

// lookupIn answers a single-key query against one state, consulting its
// bounded LRU cache first. The answer itself comes from the state's
// apps.Session: among all mappings containing the key, the one with the
// most contributing domains wins (the paper's popularity signal), matching
// the ordering of index.MappingIndex.LookupLeft.
func lookupIn(st *State, key string) client.LookupResponse {
	nk := textnorm.Normalize(key)
	if resp, ok := st.cache.get(nk); ok {
		resp.Key = key
		return resp
	}
	resp := client.LookupResponse{Found: false, Key: key}
	// The background context is deliberate: a single-key lookup is too
	// cheap to tear down mid-flight, and the cached answer must not depend
	// on the requesting client's connection state.
	if results, err := st.session.Lookup(context.Background(), []apps.LookupQuery{{Key: key}}); err == nil {
		if res := results[0]; res.Found {
			resp = client.LookupResponse{
				Found:        true,
				Key:          key,
				Value:        res.Value,
				Alternatives: res.Alternatives,
				MappingID:    res.MappingID,
				Support:      res.Support,
				Tables:       res.Tables,
				Domains:      res.Domains,
			}
		}
	}
	st.cache.put(nk, resp)
	return resp
}

func (s *Server) handleLookup(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		return writeError(w, r, client.CodeMethodNotAllowed, "GET required")
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		return writeError(w, r, client.CodeBadRequest, "missing ?key= parameter")
	}
	return writeJSON(w, http.StatusOK, lookupIn(c.state.Load(), key))
}

// ---- auto-fill ----

func (s *Server) handleAutoFill(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	var req client.AutoFillRequest
	if !s.readBody(w, r, &req) || !singleCall(w, r, req.ID) {
		return false
	}
	st := c.state.Load()
	resp, ce := autoFillCompute(r.Context(), st, st.session, req)
	if ce != nil {
		return writeError(w, r, ce.code, ce.msg)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// ---- auto-correct ----

func (s *Server) handleAutoCorrect(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	var req client.AutoCorrectRequest
	if !s.readBody(w, r, &req) || !singleCall(w, r, req.ID) {
		return false
	}
	st := c.state.Load()
	resp, ce := autoCorrectCompute(r.Context(), st, st.session, req)
	if ce != nil {
		return writeError(w, r, ce.code, ce.msg)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// ---- auto-join ----

func (s *Server) handleAutoJoin(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	var req client.AutoJoinRequest
	if !s.readBody(w, r, &req) || !singleCall(w, r, req.ID) {
		return false
	}
	st := c.state.Load()
	resp, ce := autoJoinCompute(r.Context(), st, st.session, req)
	if ce != nil {
		return writeError(w, r, ce.code, ce.msg)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// ---- health and stats ----

// handleHealthz reports per-corpus readiness: every loaded corpus appears
// with its snapshot metadata and age. The server is not-ready (503) only
// when the default corpus is absent — extra corpora come and go without
// affecting liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.reg.get(DefaultCorpus) == nil {
		writeError(w, r, client.CodeNotReady, "no snapshot loaded yet")
		return
	}
	corpora := make(map[string]client.CorpusHealth)
	for _, c := range s.reg.list() {
		st := c.state.Load()
		corpora[c.name] = client.CorpusHealth{
			Snapshot:    st.Path,
			Version:     st.Version,
			Format:      wireFormat,
			Mappings:    st.NumMappings(),
			Pairs:       st.handle.Pairs(),
			LoadedAt:    st.LoadedAt.UTC().Format(time.RFC3339),
			AgeSeconds:  time.Since(st.LoadedAt).Seconds(),
			SnapshotCRC: fmt.Sprintf("%08x", st.imageCRC()),
			Ingest:      s.ingestStatusFor(c.name),
		}
	}
	writeJSON(w, http.StatusOK, client.Health{
		Corpora:       corpora,
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// StatsSnapshot is the body of GET /v1/stats: client.Stats with the
// sections the SDK keeps as generic maps (batch, fair_queue, cache) typed,
// so they encode in declaration order. RequestID is empty when the
// snapshot was assembled outside a request (Server.Stats()).
type StatsSnapshot struct {
	RequestID     string                          `json:"request_id,omitempty"`
	Corpus        string                          `json:"corpus"`
	UptimeSeconds float64                         `json:"uptime_s"`
	Reloads       int64                           `json:"reloads"`
	Endpoints     map[string]client.EndpointStats `json:"endpoints"`
	Batch         BatchSnapshot                   `json:"batch"`
	Tenants       map[string]client.TenantStats   `json:"tenants"`
	FairQueue     FairQueueSnapshot               `json:"fair_queue"`
	Cache         CacheSnapshot                   `json:"cache"`
	Snapshot      map[string]any                  `json:"snapshot"`
	Ingest        *client.IngestStatus            `json:"ingest,omitempty"`
}

// CacheSnapshot reports the lookup cache of the live state.
type CacheSnapshot struct {
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

// Stats assembles the default corpus's current serving statistics.
func (s *Server) Stats() StatsSnapshot {
	c := s.reg.get(DefaultCorpus)
	if c == nil {
		return StatsSnapshot{Corpus: DefaultCorpus, UptimeSeconds: time.Since(s.start).Seconds()}
	}
	return s.statsFor(c)
}

// CorpusStats assembles the named corpus's serving statistics; ok is false
// when the corpus does not exist.
func (s *Server) CorpusStats(name string) (StatsSnapshot, bool) {
	c := s.reg.get(name)
	if c == nil {
		return StatsSnapshot{}, false
	}
	return s.statsFor(c), true
}

func (s *Server) statsFor(c *corpus) StatsSnapshot {
	st := c.state.Load()
	hits, misses := st.cache.hits.Load(), st.cache.misses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return StatsSnapshot{
		Corpus:        c.name,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Reloads:       c.reloads.Load(),
		Endpoints: map[string]client.EndpointStats{
			"lookup":            c.stats.lookup.snapshot(),
			"autofill":          c.stats.autofill.snapshot(),
			"autocorrect":       c.stats.autocorrect.snapshot(),
			"autojoin":          c.stats.autojoin.snapshot(),
			"batch_autofill":    c.stats.batchAutofill.snapshot(),
			"batch_autocorrect": c.stats.batchAutocorrect.snapshot(),
			"batch_autojoin":    c.stats.batchAutojoin.snapshot(),
		},
		Batch:     s.batchSnapshot(),
		Tenants:   s.tenantSnapshots(),
		FairQueue: s.fairSnapshot(),
		Cache: CacheSnapshot{
			Size:     st.cache.len(),
			Capacity: st.cache.cap,
			Hits:     hits,
			Misses:   misses,
			HitRate:  rate,
		},
		Snapshot: map[string]any{
			"path":         st.Path,
			"version":      st.Version,
			"format":       wireFormat,
			"loaded_at":    st.LoadedAt.UTC().Format(time.RFC3339),
			"mappings":     st.NumMappings(),
			"pairs":        st.handle.Pairs(),
			"mapped_bytes": st.MappedBytes(),
			"activation_s": st.ActivationSeconds,
		},
		Ingest: s.ingestStatusFor(c.name),
	}
}

func (s *Server) handleStats(c *corpus, w http.ResponseWriter, r *http.Request) {
	snap := s.statsFor(c)
	snap.RequestID = requestID(r)
	writeJSON(w, http.StatusOK, snap)
}

// ---- reload ----

// handleReload is the default corpus's reload endpoint (POST /v1/reload);
// scoped corpora reload via PUT /v1/corpora/{name}.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, client.CodeMethodNotAllowed, "POST required")
		return
	}
	var req client.ReloadRequest
	if r.ContentLength > 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, r, client.CodeBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	if req.Rebuild && req.Snapshot != "" {
		writeError(w, r, client.CodeBadRequest, "snapshot and rebuild are mutually exclusive")
		return
	}
	t0 := time.Now()
	var st *State
	var err error
	if req.Rebuild {
		st, err = s.RebuildContext(r.Context())
	} else {
		st, err = s.LoadCorpusContext(r.Context(), DefaultCorpus, req.Snapshot)
	}
	if err != nil {
		writeError(w, r, client.CodeUnprocessable, "reload failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, client.ReloadResponse{
		DurationMs: float64(time.Since(t0).Microseconds()) / 1000,
		Format:     wireFormat,
		LoadedAt:   st.LoadedAt.UTC().Format(time.RFC3339),
		Mappings:   st.NumMappings(),
		Rebuilt:    req.Rebuild,
		Snapshot:   st.Path,
		Version:    st.Version,
	})
}
