package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

func testMappings() []*mapping.Mapping {
	var maps []*mapping.Mapping
	for mi := 0; mi < 10; mi++ {
		ls := make([]string, 12)
		rs := make([]string, 12)
		for i := range ls {
			ls[i] = fmt.Sprintf("left %d %d", mi, i)
			rs[i] = fmt.Sprintf("right %d %d", mi, i)
		}
		var bts []*table.BinaryTable
		for t := 0; t < 3; t++ {
			bts = append(bts, table.NewBinaryTable(mi*10+t, mi*10+t,
				fmt.Sprintf("dom%d.example", t), "l", "r", ls, rs))
		}
		maps = append(maps, mapping.Build(mi, bts))
	}
	return maps
}

func TestWorkloadRequests(t *testing.T) {
	wl, err := NewWorkload(testMappings())
	if err != nil {
		t.Fatal(err)
	}
	if wl.Mappings() != 10 {
		t.Fatalf("usable mappings = %d", wl.Mappings())
	}
	rng := rand.New(rand.NewSource(1))
	if k := wl.lookupKey(rng); k == "" {
		t.Error("empty lookup key")
	}
	if fill := wl.autoFillReq(rng); len(fill.Column) == 0 || len(fill.Examples) == 0 {
		t.Errorf("autofill request = %+v", fill)
	}
	if corr := wl.autoCorrectReq(rng); len(corr.Column) == 0 || corr.MinEach != 2 {
		t.Errorf("autocorrect request = %+v", corr)
	}
	if join := wl.autoJoinReq(rng); len(join.KeysA) == 0 || len(join.KeysB) != len(join.KeysA) {
		t.Errorf("autojoin request = %+v", join)
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := newOpPicker(map[string]int{"nope": 1}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := newOpPicker(map[string]int{OpLookup: 0}); err == nil {
		t.Error("all-zero mix accepted")
	}
	if _, err := newOpPicker(map[string]int{OpLookup: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	p, err := newOpPicker(map[string]int{OpLookup: 1, OpAutoFill: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[p.pick(rng)]++
	}
	if counts[OpAutoFill] < 2*counts[OpLookup] {
		t.Errorf("weights not respected: %v", counts)
	}
}

// TestRunMixedWorkload drives every op against a real server over HTTP and
// requires a clean report: all ops issued, zero errors, batch rows counted.
func TestRunMixedWorkload(t *testing.T) {
	maps := testMappings()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := NewWorkload(maps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    400 * time.Millisecond,
		Concurrency: 4,
		BatchSize:   4,
		Seed:        1,
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %+v", rep.Errors, rep.Ops)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests issued")
	}
	for _, op := range []string{OpLookup, OpAutoFill, OpBatchAutoFill, OpBatchAutoJoin} {
		if rep.Ops[op].Count == 0 {
			t.Errorf("op %s never ran: %+v", op, rep.Ops)
		}
	}
	if got := rep.Ops[OpBatchAutoFill]; got.Rows != got.Count*4 {
		t.Errorf("batch-autofill rows = %d, want %d (4 per batch)", got.Rows, got.Count*4)
	}
	if rep.AchievedQPS <= 0 {
		t.Errorf("achieved qps = %v", rep.AchievedQPS)
	}
}

// TestRunIngestLane mixes the opt-in ingest op into a query workload
// against an ingest-enabled server: zero errors, ingest rows acknowledged,
// the server's staleness report shows the log head advancing, and once load
// stops the log drains (applied_lsn reaches head_lsn, nothing pending).
func TestRunIngestLane(t *testing.T) {
	maps := testMappings()
	srv := serve.NewFromMappings(maps, serve.Options{
		CacheSize: 64, IngestDir: t.TempDir(),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := NewWorkload(maps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:      ts.URL,
		Duration:     400 * time.Millisecond,
		Concurrency:  4,
		BatchSize:    4,
		IngestTables: 2,
		Mix:          map[string]int{OpLookup: 3, OpIngest: 1},
		Seed:         1,
		Client:       ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %+v", rep.Errors, rep.ErrorSamples)
	}
	ing := rep.Ops[OpIngest]
	if ing.Count == 0 || rep.Ops[OpLookup].Count == 0 {
		t.Fatalf("ops never ran: %+v", rep.Ops)
	}
	if ing.Rows != ing.Count*2 {
		t.Errorf("ingest rows = %d, want %d (2 per request)", ing.Rows, ing.Count*2)
	}
	// Bounded staleness: once load stops the log must drain. Poll through
	// the public API — the same staleness report operators watch.
	corpus := client.New(ts.URL).Corpus(client.DefaultCorpus)
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, err := corpus.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st := info.Ingest
		// Every counted row is durable; the head can run ahead of the count
		// by a request the deadline tore down after the server's fsync.
		if st == nil || st.HeadLSN < ing.Rows {
			t.Fatalf("server head LSN = %+v, want >= %d durable rows", st, ing.Rows)
		}
		if st.AppliedLSN == st.HeadLSN && !st.Pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest log did not drain: applied_lsn %d, head_lsn %d, pending %v",
				st.AppliedLSN, st.HeadLSN, st.Pending)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunMultiCorpus is the multi-corpus acceptance run: two corpora with
// the same mapping set served from one process, a mixed workload spread
// over both through the SDK's corpus-scoped handles — zero errors, and
// each corpus's /stats must show its own share of the traffic.
func TestRunMultiCorpus(t *testing.T) {
	maps := testMappings()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 64})
	if _, err := srv.AddCorpus("tickers", maps); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := NewWorkload(maps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    500 * time.Millisecond,
		Concurrency: 4,
		BatchSize:   4,
		Corpora:     []string{"default", "tickers"},
		Seed:        1,
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %+v", rep.Errors, rep.Ops)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if len(rep.Corpora) != 2 {
		t.Errorf("report corpora = %v", rep.Corpora)
	}

	// Both corpora saw traffic, counted independently, summing to the
	// report's totals per endpoint.
	def, ok := srv.CorpusStats("default")
	if !ok {
		t.Fatal("default stats missing")
	}
	tk, ok := srv.CorpusStats("tickers")
	if !ok {
		t.Fatal("tickers stats missing")
	}
	if def.Endpoints["lookup"].Requests == 0 || tk.Endpoints["lookup"].Requests == 0 {
		t.Errorf("lookup traffic not spread: default=%d tickers=%d",
			def.Endpoints["lookup"].Requests, tk.Endpoints["lookup"].Requests)
	}
	// The sum of the two corpora's counters must match what the generator
	// issued, give or take the in-flight requests the run deadline tore
	// down after the server had already counted them (at most one per
	// worker).
	gotLookups := def.Endpoints["lookup"].Requests + tk.Endpoints["lookup"].Requests
	want := rep.Ops[OpLookup].Count
	if gotLookups < want || gotLookups > want+4 {
		t.Errorf("server lookup counters sum to %d, loadgen issued %d", gotLookups, want)
	}
}

// TestRunPaced checks the QPS pacer actually limits the issue rate.
func TestRunPaced(t *testing.T) {
	maps := testMappings()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wl, err := NewWorkload(maps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    500 * time.Millisecond,
		TargetQPS:   40,
		Concurrency: 4,
		Mix:         map[string]int{OpLookup: 1},
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	// ~20 requests expected at 40 QPS over 0.5s; allow generous slack for
	// scheduler noise but catch an unpaced flood (thousands).
	if rep.Requests > 40 {
		t.Errorf("paced run issued %d requests, want ≈20", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
}

// TestRunCountsThrottlingNotErrors saturates a tiny batch limiter and
// checks 429s land in Throttled, keeping the report clean of errors.
func TestRunCountsThrottlingNotErrors(t *testing.T) {
	maps := testMappings()
	srv := serve.NewFromMappings(maps, serve.Options{
		MaxBatchRequests: 1, MaxBatchRows: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wl, err := NewWorkload(maps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    300 * time.Millisecond,
		Concurrency: 8,
		BatchSize:   8,
		Mix:         map[string]int{OpBatchAutoFill: 1},
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (429s are throttling)", rep.Errors)
	}
	if rep.Throttled == 0 {
		t.Error("8 workers against a 1-request limiter never throttled")
	}
}

// TestErrorSamples: failing requests land in Report.ErrorSamples with the
// server's request ID, bounded by maxErrorSamples, and throttling does not.
func TestErrorSamples(t *testing.T) {
	// A server that always fails with a structured envelope — every issued
	// request is an error carrying a known request ID.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", "boom-1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"kaboom","request_id":"boom-1"}}`)
	}))
	defer ts.Close()

	wl, err := NewWorkload(testMappings())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    200 * time.Millisecond,
		Concurrency: 4,
		Mix:         map[string]int{OpLookup: 1},
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 {
		t.Fatal("all-500 server produced no errors")
	}
	if len(rep.ErrorSamples) == 0 {
		t.Fatal("errors reported but no samples kept")
	}
	if len(rep.ErrorSamples) > maxErrorSamples {
		t.Errorf("%d samples kept, cap is %d", len(rep.ErrorSamples), maxErrorSamples)
	}
	s := rep.ErrorSamples[0]
	if s.Op != OpLookup {
		t.Errorf("sample op = %q", s.Op)
	}
	if s.RequestID != "boom-1" {
		t.Errorf("sample request id = %q, want boom-1", s.RequestID)
	}
	if !strings.Contains(s.Message, "kaboom") {
		t.Errorf("sample message = %q", s.Message)
	}
}

// TestSampleFrom pins the outcome classification: success and throttling
// yield no sample, failures carry the envelope's request ID.
func TestSampleFrom(t *testing.T) {
	if th, s := sampleFrom(OpLookup, nil); th || s != nil {
		t.Errorf("nil error: throttled=%v sample=%+v", th, s)
	}
	overloaded := &client.APIError{Status: http.StatusTooManyRequests, Code: "overloaded"}
	if th, s := sampleFrom(OpLookup, overloaded); !th || s != nil {
		t.Errorf("429: throttled=%v sample=%+v", th, s)
	}
	notFound := &client.APIError{Status: http.StatusNotFound, Code: "not_found", Message: "nope", RequestID: "rid-9"}
	th, s := sampleFrom(OpAutoFill, notFound)
	if th || s == nil {
		t.Fatalf("404: throttled=%v sample=%+v", th, s)
	}
	if s.Op != OpAutoFill || s.RequestID != "rid-9" {
		t.Errorf("sample = %+v", s)
	}
}

// TestFullLoopSeedCorpus is the acceptance run in miniature: synthesize the
// seed web corpus, persist a snapshot, serve it, and drive a mixed
// single/batch workload — zero errors expected end to end.
func TestFullLoopSeedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42})
	cfg := pipeline.DefaultConfig()
	cfg.MinDomains = 2
	res, err := pipeline.New(cfg).Run(context.Background(), corpus.Tables)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "seed.snap")
	if err := snapshot.WriteFileV2(snapPath, res.Mappings); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{SnapshotPath: snapPath, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maps, err := snapshot.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(maps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Duration:    time.Second,
		Concurrency: 4,
		BatchSize:   8,
		Seed:        42,
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("full loop errors = %d: %+v", rep.Errors, rep.Ops)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests issued")
	}
	t.Logf("full loop: %d requests at %.0f req/s, %d throttled", rep.Requests, rep.AchievedQPS, rep.Throttled)
}
