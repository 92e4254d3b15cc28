// Command serve is the long-running mapping service: it loads a snapshot
// written by `synthesize -snapshot` into read-only containment indexes and
// serves the paper's end-user applications over HTTP.
//
// Usage:
//
//	serve -snapshot out.snap [-corpus name=path ...] [-addr :8080]
//	      [-tables corpus.json] [-min-domains 2] [-ingest-dir DIR]
//	      [-cache 4096] [-history 4]
//	      [-batch-requests 32] [-batch-rows 256] [-batch-write-timeout 30s]
//	      [-tenants interactive:4,bulk:1:50:10,*:1:100]
//	serve -peers n1=host1:8080,n2=host2:8080 [-addr :8080]
//	      [-probe-interval 2s] [-peer-timeout 10s]
//
// One process serves many named corpora: -snapshot loads the "default"
// corpus and each repeatable -corpus name=path flag loads a further one.
// Every application endpoint exists corpus-scoped under
// /v1/corpora/{name}/...; the unscoped /v1/... paths answer
// byte-identically for the default corpus:
//
//	GET  /v1/lookup?key=K       single-key lookup with provenance (LRU-cached)
//	POST /v1/autofill           {"column":[...], "examples":[{"left","right"}], "min_coverage":0.8, "top_k":0}
//	POST /v1/autocorrect        {"column":[...], "min_each":2, "min_coverage":0.8, "top_k":0}
//	POST /v1/autojoin           {"keys_a":[...], "keys_b":[...], "min_coverage":0.8, "top_k":0}
//	POST /v1/batch/autofill     NDJSON stream: one /v1/autofill body per line (+optional "id")
//	POST /v1/batch/autocorrect  NDJSON stream: one /v1/autocorrect body per line
//	POST /v1/batch/autojoin     NDJSON stream: one /v1/autojoin body per line
//	GET  /v1/healthz            liveness + per-corpus readiness metadata
//	GET  /v1/stats              per-corpus request counts, latency percentiles, cache + shared batch limiter
//	POST /v1/reload             {"snapshot":"path"} — atomic snapshot hot reload (default corpus);
//	                            {"rebuild":true} re-synthesizes -tables plus the applied ingested tables
//
// Corpus lifecycle (see docs/api.md#corpora):
//
//	GET    /v1/corpora                  list corpora with version metadata
//	PUT    /v1/corpora/{name}           load-or-replace from {"snapshot":"path"} or an uploaded snapshot body
//	DELETE /v1/corpora/{name}           remove (default protected)
//	POST   /v1/corpora/{name}/activate  {"version":N} — re-activate a prior version
//	POST   /v1/corpora/{name}/rollback  undo the last load/activate
//
// Errors on every path are the structured envelope
// {"error":{"code":"...","message":"...","retry_after_ms":N,"request_id":"..."}}
// with machine-readable codes; every request gets an X-Request-ID. Go
// clients should use mapsynth/pkg/client instead of raw HTTP.
//
// The /v1/batch/* endpoints answer NDJSON, one result line per input as it
// completes, and are guarded by an admission limiter shared across all
// corpora: -batch-requests bounds concurrent batch requests (beyond it:
// 429 + Retry-After), -batch-rows bounds concurrently computing rows
// across all batches (beyond it the server stops reading request bodies —
// TCP backpressure). See docs/api.md.
//
// Multi-tenant QoS: requests carry an optional X-Tenant header (absent =
// "default"). -tenants assigns each tenant a token-bucket rate limit
// (over quota: 429 quota_exhausted + Retry-After) and a weight; a
// weighted-fair queue arbitrates the shared -batch-rows compute slots, in
// which interactive single-query requests strictly preempt batch rows and
// tenants within a band share slots in proportion to their weights. Each
// entry is name[:weight[:rate[:burst]]]; "*" is the template applied to
// tenants first seen at request time. Per-tenant counters and latency
// appear in /v1/stats and /v1/metrics.
//
// Live ingestion (see docs/ingestion.md): -ingest-dir enables
// POST /v1/corpora/{name}/tables — an NDJSON stream of tables appended to a
// per-corpus durable log under that directory and synthesized incrementally
// into new snapshot versions (only dirty compatibility-graph components
// re-run; the result is byte-identical to an offline rebuild). Without
// -ingest-dir the endpoint answers 422.
//
// Table source: -tables names the JSON table corpus (corpusgen -o) that
// `synthesize -corpus` built the -snapshot from; start-up exits 2 unless
// one synthesis of it at -min-domains reproduces the snapshot's CRC. It is
// the base the default corpus's ingested tables extend, and
// POST /v1/reload {"rebuild":true} re-synthesizes it plus every applied
// ingested table. Without it ingested tables are synthesized alone.
//
// Observability (see docs/observability.md):
//
//	GET /v1/metrics             Prometheus text exposition: per-corpus request
//	                            counts and latency histograms, error counts by
//	                            envelope code, batch limiter, registry, worker
//	                            pool, rebuild pipeline stages (with -tables), Go runtime
//
// Every request emits one structured access-log line (log/slog) with its
// X-Request-ID; -log-format selects json or text, -log-level the threshold.
// -pprof-addr exposes net/http/pprof plus a second /metrics on a separate
// admin listener (off by default — keep it off public interfaces).
//
// Cluster coordinator (see docs/cluster.md): with -peers the process
// serves no data itself. It fronts the named peers, every one a full
// replica, as one logical service: each request is proxied to an alive
// replica at the freshest corpus version, dead peers are routed around,
// and with none alive requests answer 503 not_ready. POST /v1/cluster/roll
// ships a corpus's snapshot from the freshest replica to the others.
//
// SIGHUP hot-reloads every corpus's current snapshot path; SIGINT/SIGTERM
// drain in-flight requests and exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mapsynth/internal/cluster"
	"mapsynth/internal/corpusio"
	"mapsynth/internal/metrics"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/qos"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// checkTables reads the table corpus at tablesPath and returns it if one
// synthesis with cfg reproduces the CRC of the image snapPath loads. A
// mismatch means rebuilds and ingestion would serve something else.
func checkTables(ctx context.Context, snapPath, tablesPath string, cfg pipeline.Config) ([]*table.Table, error) {
	f, err := os.Open(tablesPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tables, err := corpusio.ReadTablesJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tablesPath, err)
	}
	ld, err := snapshot.Load(snapPath)
	if err != nil {
		return nil, err
	}
	defer ld.Handle.Close()
	res, err := pipeline.New(cfg).Run(ctx, tables)
	if err != nil {
		return nil, err
	}
	h, err := snapshot.FromMappings(res.Mappings)
	if err != nil {
		return nil, err
	}
	if got, want := h.CRC(), ld.Handle.CRC(); got != want {
		return nil, fmt.Errorf("%s synthesizes to snapshot_crc %08x at -min-domains %d, but %s has snapshot_crc %08x: the tables or -min-domains do not match the snapshot",
			tablesPath, got, cfg.MinDomains, snapPath, want)
	}
	return tables, nil
}

// newLogger builds the process logger from the CLI's format/level choice.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want json or text)", format)
	}
}

// serveAdmin runs the opt-in admin listener: net/http/pprof for live
// profiling plus the same metrics registry at /metrics, so an operator can
// scrape and profile without touching the public query surface.
func serveAdmin(addr string, reg *metrics.Registry, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	logger.Info("admin listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("admin listener failed", "addr", addr, "error", err)
	}
}

// runCoordinator is -peers mode: the process serves no data itself;
// instead it probes the named peers and fronts them as one logical
// service (see internal/cluster and docs/cluster.md).
func runCoordinator(peersSpec, addr string, probeInterval, peerTimeout time.Duration, logger *slog.Logger) {
	peers, err := cluster.ParsePeers(peersSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: -peers: %v\n", err)
		os.Exit(2)
	}
	topo, err := cluster.NewTopology(peers, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: -peers: %v\n", err)
		os.Exit(2)
	}
	co, err := cluster.New(topo, cluster.Options{
		ProbeInterval: probeInterval,
		PeerTimeout:   peerTimeout,
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	co.Start(ctx)
	for _, p := range topo.Peers {
		fmt.Printf("serve: peer %s at %s\n", p.Name, p.Addr)
	}
	fmt.Printf("serve: coordinating %d peers on %s\n", len(topo.Peers), addr)
	hs := &http.Server{Addr: addr, Handler: co.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
		fmt.Println("serve: coordinator drained, bye")
	}
}

func main() {
	snapPath := flag.String("snapshot", "", "snapshot file written by synthesize -snapshot, served as the default corpus (required)")
	corpora := make(map[string]string)
	flag.Func("corpus", "additional corpus as name=path; repeatable", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := corpora[name]; dup {
			return fmt.Errorf("corpus %q given twice", name)
		}
		corpora[name] = path
		return nil
	})
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 4096, "lookup cache entries per corpus; 0 disables")
	history := flag.Int("history", 4, "rollback ring depth: prior snapshot versions kept activatable per corpus")
	batchRequests := flag.Int("batch-requests", 32, "max concurrent /batch/* requests; beyond it 429")
	batchRows := flag.Int("batch-rows", 256, "max concurrently computing batch rows across all requests")
	batchWriteTimeout := flag.Duration("batch-write-timeout", 30*time.Second, "abandon a batch stream when the client reads nothing for this long")
	tenantsFlag := flag.String("tenants", "", "per-tenant QoS specs as name[:weight[:rate[:burst]]] comma-separated; \"*\" is the template for unlisted tenants (e.g. 'interactive:4,bulk:1:50:10,*:1:100'); @file reads the specs from a file SIGHUP re-reads; empty = every tenant unlimited, weight 1")
	maxUploadBytes := flag.Int64("max-upload-bytes", 0, "max PUT /v1/corpora/{name} body bytes (snapshot uploads); beyond it 413 payload_too_large; 0 = the batch body bound")
	madviseFlag := flag.String("madvise", "", "page-cache hint applied to mmapped v2 snapshots: willneed (preload: snapshot fits the cache) or random (no read-ahead: snapshot dwarfs it); empty = none")
	peersFlag := flag.String("peers", "", "coordinator mode: comma-separated full-replica peers as name=addr; the process routes each request to an alive replica instead of serving data")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "coordinator mode: peer health probe period")
	peerTimeout := flag.Duration("peer-timeout", 10*time.Second, "coordinator mode: per-peer deadline on probes, proxied requests and roll transfers")
	tablesPath := flag.String("tables", "", "table corpus JSON the -snapshot was synthesized from (synthesize -corpus's input); enables POST /v1/reload {\"rebuild\":true} and is the base ingested tables extend; checked against -snapshot at start-up")
	minDomains := flag.Int("min-domains", 2, "curation filter of rebuilds and ingestion: min contributing domains (synthesize's -min-domains for the snapshot)")
	ingestDir := flag.String("ingest-dir", "", "directory for per-corpus ingest append logs; enables POST /v1/corpora/{name}/tables (live ingestion with incremental synthesis); empty disables")
	logFormat := flag.String("log-format", "text", "structured log format: json or text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofAddr := flag.String("pprof-addr", "", "admin listen address for net/http/pprof and /metrics (e.g. localhost:6060); empty disables")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	if *peersFlag != "" {
		runCoordinator(*peersFlag, *addr, *probeInterval, *peerTimeout, logger)
		return
	}
	if *snapPath == "" {
		fmt.Fprintln(os.Stderr, "serve: -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
	// -tenants @file: read the spec table from a file, and re-read it on
	// SIGHUP — quota changes without a restart (POST /v1/tenants is the
	// API-driven equivalent).
	var tenantSource func() ([]qos.Spec, error)
	tenantSpecText := *tenantsFlag
	if file, ok := strings.CutPrefix(*tenantsFlag, "@"); ok {
		tenantSource = func() ([]qos.Spec, error) {
			data, err := os.ReadFile(file)
			if err != nil {
				return nil, err
			}
			// One spec per line, blank lines and #-comments allowed; a
			// line may itself hold the flag's comma-separated form.
			var entries []string
			for _, line := range strings.Split(string(data), "\n") {
				if i := strings.IndexByte(line, '#'); i >= 0 {
					line = line[:i]
				}
				if line = strings.TrimSpace(line); line != "" {
					entries = append(entries, line)
				}
			}
			return qos.ParseSpecs(strings.Join(entries, ","))
		}
		specs, err := tenantSource()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: -tenants %s: %v\n", *tenantsFlag, err)
			os.Exit(2)
		}
		tenantSpecText = qos.FormatSpecs(specs)
	}
	tenantSpecs, err := qos.ParseSpecs(tenantSpecText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: -tenants: %v\n", err)
		os.Exit(2)
	}
	madvise, err := snapshot.ParseAdvice(*madviseFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: -madvise: %v\n", err)
		os.Exit(2)
	}
	// Rebuilds and ingestion synthesize with GOMAXPROCS workers.
	cfg := pipeline.DefaultConfig()
	cfg.MinDomains = *minDomains
	var tables []*table.Table
	if *tablesPath != "" {
		// Before serve.New: ingest recovery may publish as soon as it
		// returns, and must extend the tables the snapshot came from.
		if tables, err = checkTables(context.Background(), *snapPath, *tablesPath, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "serve: -tables: %v\n", err)
			os.Exit(2)
		}
	}
	if *ingestDir != "" {
		if err := os.MkdirAll(*ingestDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "serve: -ingest-dir: %v\n", err)
			os.Exit(2)
		}
	}
	// serve.New registers into it; the admin listener serves it too.
	reg := metrics.New()
	srv, err := serve.New(serve.Options{
		SnapshotPath:      *snapPath,
		Corpora:           corpora,
		CacheSize:         *cacheSize,
		HistoryDepth:      *history,
		MaxBatchRequests:  *batchRequests,
		MaxBatchRows:      *batchRows,
		BatchWriteTimeout: *batchWriteTimeout,
		Tenants:           tenantSpecs,
		TenantSource:      tenantSource,
		MaxUploadBytes:    *maxUploadBytes,
		Madvise:           madvise,
		IngestDir:         *ingestDir,
		Tables:            tables,
		Synthesis:         &cfg,
		Metrics:           reg,
		Logger:            logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: starting: %v\n", err)
		os.Exit(1)
	}
	for _, name := range srv.CorpusNames() {
		st := srv.CorpusState(name)
		fmt.Printf("serve: corpus %s: loaded %s: %d mappings\n", name, st.Path, st.NumMappings())
	}
	fmt.Printf("serve: listening on %s (SIGHUP reloads every corpus)\n", *addr)
	if *pprofAddr != "" {
		go serveAdmin(*pprofAddr, reg, logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("serve: drained, bye")
}
