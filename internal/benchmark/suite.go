package benchmark

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/loadgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
)

// SuiteOptions parameterizes RunSuite. The zero value runs the full seed web
// corpus with a short serving phase — the repeatable baseline ROADMAP item 3
// asks for.
type SuiteOptions struct {
	// Seed is the corpus generation seed; 0 selects 42 (the seed corpus).
	Seed int64
	// Scale shrinks the generated corpus for quick runs; <= 0 selects 1.0.
	Scale float64
	// Duration bounds the loadgen serving phase; <= 0 selects 3s.
	Duration time.Duration
	// Concurrency is the loadgen worker count; <= 0 selects 8.
	Concurrency int
	// BatchSize is the NDJSON lines per batch request; <= 0 selects 16.
	BatchSize int
	// Dir is where the suite writes its snapshot artifact; empty uses a
	// temp dir removed afterwards.
	Dir string
}

// StageTiming is one pipeline stage's share of the synthesis benchmark.
type StageTiming struct {
	Stage           string  `json:"stage"`
	DurationSeconds float64 `json:"duration_s"`
	Items           int     `json:"items"`
	Produced        int     `json:"produced"`
	PeakWorkers     int     `json:"peak_workers"`
}

// MicroBench is one testing.Benchmark result: latency and allocation cost
// per operation.
type MicroBench struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// SuiteResult is the JSON written to BENCH_N.json: one comparable record
// per PR of the synthesize → snapshot → serve pipeline's cost.
type SuiteResult struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Corpus struct {
		Profile string  `json:"profile"`
		Seed    int64   `json:"seed"`
		Scale   float64 `json:"scale"`
		Tables  int     `json:"tables"`
	} `json:"corpus"`

	Synthesis struct {
		DurationSeconds float64       `json:"duration_s"`
		Mappings        int           `json:"mappings"`
		Pairs           int           `json:"pairs"`
		Stages          []StageTiming `json:"stages"`
	} `json:"synthesis"`

	// Snapshot covers the mapping set written as a format-v2 snapshot file
	// (reports up to BENCH_12 also carried v1 bytes/write_s/load_s).
	Snapshot struct {
		V2Bytes        int64   `json:"v2_bytes"`
		V2WriteSeconds float64 `json:"v2_write_s"`
	} `json:"snapshot"`

	// Activation measures corpus activation from a snapshot file: how long
	// a cold server takes from construction to its first answered query
	// (mmap + header validation), and how much resident heap the activation
	// left behind. One "v2" entry; reports up to BENCH_12 also carried "v1".
	Activation []ActivationBench `json:"activation,omitempty"`

	// Lookup is the in-process handler micro-benchmark: one GET /v1/lookup
	// through the full routing/middleware/index path, no network.
	Lookup MicroBench `json:"lookup"`

	// Serving is the closed-loop mixed-workload run over real HTTP:
	// throughput plus per-op p50/p99 as loadgen reports them.
	Serving *loadgen.Report `json:"serving"`

	// Isolation is the multi-tenant QoS proof: a victim interactive
	// tenant's p99 beside an abusive batch tenant, gated against its own
	// solo baseline.
	Isolation *loadgen.IsolationResult `json:"isolation,omitempty"`

	// Cluster is the scatter-gather coordinator's proof: throughput must
	// scale across replicas and a mid-run snapshot roll must stay
	// invisible to clients.
	Cluster *ClusterBenchResult `json:"cluster,omitempty"`

	// Ingest is query latency under concurrent live ingestion, plus the
	// proof that the ingest log drained (bounded staleness).
	Ingest *IngestBenchResult `json:"ingest,omitempty"`
}

// ActivationBench is a snapshot file's activation cost: open → first query
// answered, plus the heap the activation left resident.
type ActivationBench struct {
	Format        string `json:"format"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// OpenSeconds spans serve.New (snapshot open + index + session) through
	// the first lookup answered — the "ready to serve" latency an operator
	// sees on activate/rollback.
	OpenSeconds float64 `json:"open_s"`
	// HeapAllocDelta/HeapInuseDelta are post-GC heap growth across the
	// activation; mmap-backed states keep the corpus out of both.
	HeapAllocDelta int64 `json:"heap_alloc_delta_bytes"`
	HeapInuseDelta int64 `json:"heap_inuse_delta_bytes"`
	// MappedBytes is the mmapped region backing the state.
	MappedBytes int64 `json:"mapped_bytes"`
}

// benchActivation cold-starts a server from the snapshot at path, answers
// one lookup, and reports wall time plus post-GC heap deltas.
func benchActivation(path, firstKey string) (ActivationBench, error) {
	out := ActivationBench{Format: "v2"}
	if info, err := os.Stat(path); err == nil {
		out.SnapshotBytes = info.Size()
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	srv, err := serve.New(serve.Options{SnapshotPath: path})
	if err != nil {
		return out, err
	}
	srv.Lookup(firstKey)
	out.OpenSeconds = time.Since(t0).Seconds()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.HeapAllocDelta = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	out.HeapInuseDelta = int64(after.HeapInuse) - int64(before.HeapInuse)
	out.MappedBytes = srv.State().MappedBytes()
	runtime.KeepAlive(srv)
	return out, nil
}

// RunSuite generates the corpus, synthesizes mappings (timed per stage),
// writes and cold-activates a snapshot (both timed), micro-benchmarks the
// lookup handler for alloc/op, and drives a mixed loadgen workload over
// HTTP for throughput and percentiles. The returned result marshals to the
// BENCH_N.json schema.
func RunSuite(ctx context.Context, opts SuiteOptions) (*SuiteResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.Duration <= 0 {
		opts.Duration = 3 * time.Second
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "mapsynth-bench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	res := &SuiteResult{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: opts.Seed, Scale: opts.Scale})
	res.Corpus.Profile = "web"
	res.Corpus.Seed = opts.Seed
	res.Corpus.Scale = opts.Scale
	res.Corpus.Tables = len(corpus.Tables)

	t0 := time.Now()
	pres, err := pipeline.New(pipeline.DefaultConfig()).Run(ctx, corpus.Tables)
	if err != nil {
		return nil, fmt.Errorf("benchmark: synthesis: %w", err)
	}
	res.Synthesis.DurationSeconds = time.Since(t0).Seconds()
	res.Synthesis.Mappings = len(pres.Mappings)
	for _, m := range pres.Mappings {
		res.Synthesis.Pairs += m.Size()
	}
	for _, st := range pres.Stages {
		res.Synthesis.Stages = append(res.Synthesis.Stages, StageTiming{
			Stage:           st.Name,
			DurationSeconds: st.Duration.Seconds(),
			Items:           st.Items,
			Produced:        st.Produced,
			PeakWorkers:     st.PeakWorkers,
		})
	}

	maps := pres.Mappings
	snapPath := filepath.Join(dir, "bench.snap")
	t0 = time.Now()
	if err := snapshot.WriteFileV2(snapPath, maps); err != nil {
		return nil, fmt.Errorf("benchmark: snapshot write: %w", err)
	}
	res.Snapshot.V2WriteSeconds = time.Since(t0).Seconds()
	if info, err := os.Stat(snapPath); err == nil {
		res.Snapshot.V2Bytes = info.Size()
	}

	// Activation: cold server start from the file.
	firstKey := ""
	if len(maps) > 0 && len(maps[0].Pairs) > 0 {
		firstKey = maps[0].Pairs[0].L
	}
	ab, err := benchActivation(snapPath, firstKey)
	if err != nil {
		return nil, fmt.Errorf("benchmark: activation: %w", err)
	}
	res.Activation = append(res.Activation, ab)

	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 4096})
	res.Lookup = benchLookup(srv, maps)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wl, err := loadgen.NewWorkload(maps)
	if err != nil {
		return nil, fmt.Errorf("benchmark: workload: %w", err)
	}
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     ts.URL,
		Duration:    opts.Duration,
		Concurrency: opts.Concurrency,
		BatchSize:   opts.BatchSize,
		Seed:        opts.Seed,
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		return nil, fmt.Errorf("benchmark: loadgen: %w", err)
	}
	res.Serving = rep

	// The isolation scenario builds its own server (it needs tenant specs
	// and a small slot budget), reusing the suite's mapping set. Each
	// phase runs Duration/2 so the whole scenario costs about one serving
	// phase. The slack is wider than the CI test's 15ms because the victim
	// still shares CPU with batch rows computing on the other slots — the
	// fair queue's reserved interactive slot removes queue-level
	// head-of-line stalls (the old one-full-row allowance was 50ms), but
	// on a small runner the victim's goroutine still timeshares the CPU
	// with up to Slots-1 computing rows. The stats histogram buckets at
	// powers of two, so the p99 reports as a bucket ceiling: 30ms of slack
	// (bound ≈ 34ms over a ~2ms solo p99) admits the 32.767ms bucket and
	// rejects the 65.535ms one — one bucket tighter in spirit and 20ms
	// tighter in bound than the pre-reservation gate, while not demanding
	// sub-quantum scheduling from a single-core CI runner.
	iso, err := loadgen.RunIsolation(ctx, loadgen.IsolationConfig{
		PhaseDuration: opts.Duration / 2,
		Seed:          opts.Seed,
		SlackMs:       30,
	}, maps)
	if err != nil {
		return nil, fmt.Errorf("benchmark: isolation: %w", err)
	}
	res.Isolation = iso

	// The cluster scenario boots its own node fleet and coordinators over
	// the suite's mapping set; each of its three phases runs Duration/2.
	cl, err := RunCluster(ctx, ClusterBenchOptions{
		PhaseDuration: opts.Duration / 2,
		Seed:          opts.Seed,
	}, maps)
	if err != nil {
		return nil, fmt.Errorf("benchmark: cluster: %w", err)
	}
	res.Cluster = cl

	// The ingest scenario serves the same mapping set with live ingestion
	// enabled and measures lookup latency while the ingest lane mutates the
	// corpus underneath it.
	ing, err := RunIngest(ctx, IngestBenchOptions{
		Duration: opts.Duration / 2,
		Seed:     opts.Seed,
	}, maps)
	if err != nil {
		return nil, fmt.Errorf("benchmark: ingest: %w", err)
	}
	res.Ingest = ing
	return res, nil
}

// benchLookup drives GET /v1/lookup through the complete handler chain
// (request-ID + instrumentation middleware, routing, cache, index)
// with an in-process recorder, rotating across real keys so the cache sees
// a realistic mix rather than one hot entry.
func benchLookup(srv *serve.Server, maps []*mapping.Mapping) MicroBench {
	handler := srv.Handler()
	var keys []string
	for _, m := range maps {
		for _, p := range m.Pairs {
			keys = append(keys, p.L)
			if len(keys) >= 1024 {
				break
			}
		}
		if len(keys) >= 1024 {
			break
		}
	}
	if len(keys) == 0 {
		return MicroBench{}
	}
	reqs := make([]*http.Request, len(keys))
	for i, k := range keys {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/lookup?key="+url.QueryEscape(k), nil)
	}
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, reqs[i%len(reqs)])
		}
	})
	out := MicroBench{
		Iterations:  int64(br.N),
		NsPerOp:     br.NsPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if br.NsPerOp() > 0 {
		out.OpsPerSec = 1e9 / float64(br.NsPerOp())
	}
	return out
}
