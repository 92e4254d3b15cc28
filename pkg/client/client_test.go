package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/serve"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// testService builds a real serve.Server over a deterministic mapping set
// and returns a Client pointed at it — the SDK is tested against the
// actual v1 surface, not a mock.
func testService(t *testing.T, opts ...client.Option) *client.Client {
	t.Helper()
	states := []string{"California", "Washington", "Oregon", "Texas"}
	abbrs := []string{"CA", "WA", "OR", "TX"}
	var stateTables []*table.BinaryTable
	for i := 0; i < 3; i++ {
		stateTables = append(stateTables, table.NewBinaryTable(
			i, i, fmt.Sprintf("dom%d.example", i), "state", "abbr", states, abbrs))
	}
	cities := []string{"San Francisco", "Seattle", "Portland", "Houston"}
	cityStates := []string{"California", "Washington", "Oregon", "Texas"}
	cityTables := []*table.BinaryTable{
		table.NewBinaryTable(10, 10, "cities.example", "city", "state", cities, cityStates),
	}
	maps := []*mapping.Mapping{
		mapping.Build(0, stateTables),
		mapping.Build(1, cityTables),
	}
	srv := serve.NewFromMappings(maps, serve.Options{SnapshotPath: "test.snap", CacheSize: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL, opts...)
}

func TestLookupAndApps(t *testing.T) {
	c := testService(t)
	ctx := context.Background()

	lk, err := c.Lookup(ctx, "California")
	if err != nil {
		t.Fatal(err)
	}
	if !lk.Found || lk.Value != "CA" || lk.Domains != 3 {
		t.Errorf("lookup = %+v", lk)
	}

	fill, err := c.AutoFill(ctx, client.AutoFillRequest{
		Column:   []string{"San Francisco", "Seattle", "Portland"},
		Examples: []client.Example{{Left: "San Francisco", Right: "California"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fill.Found || len(fill.Filled) != 3 || fill.Filled[1].Value != "Washington" {
		t.Errorf("autofill = %+v", fill)
	}
	if fill.Candidates != nil {
		t.Errorf("candidates without top_k: %+v", fill.Candidates)
	}

	corr, err := c.AutoCorrect(ctx, client.AutoCorrectRequest{
		Column:  []string{"California", "Washington", "OR", "Texas"},
		MinEach: 1, // one abbreviated cell among three full names
	})
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Found || len(corr.Corrections) != 1 || corr.Corrections[0].Suggested != "Oregon" {
		t.Errorf("autocorrect = %+v", corr)
	}

	join, err := c.AutoJoin(ctx, client.AutoJoinRequest{
		KeysA: []string{"California", "Washington", "Oregon"},
		KeysB: []string{"WA", "CA", "ZZ"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !join.Found || join.Bridged != 2 {
		t.Errorf("autojoin = %+v", join)
	}

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Corpora[client.DefaultCorpus].Mappings != 2 {
		t.Errorf("healthz = %+v", h)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RequestID == "" {
		t.Error("stats missing request_id")
	}
	if st.Endpoints["lookup"].Requests != 1 {
		t.Errorf("stats lookup requests = %d", st.Endpoints["lookup"].Requests)
	}
}

func TestTopKCandidates(t *testing.T) {
	c := testService(t)
	fill, err := c.AutoFill(context.Background(), client.AutoFillRequest{
		Column: []string{"California", "Washington"},
		TopK:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fill.Found || len(fill.Candidates) == 0 {
		t.Fatalf("top_k answer missing candidates: %+v", fill)
	}
	if fill.Candidates[0].MappingIndex != fill.MappingIndex {
		t.Errorf("first candidate %+v != primary %+v", fill.Candidates[0], fill.AutoFillCandidate)
	}
}

func TestAPIErrorShape(t *testing.T) {
	c := testService(t)
	_, err := c.AutoFill(context.Background(), client.AutoFillRequest{})
	var aerr *client.APIError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *client.APIError", err)
	}
	if aerr.Status != http.StatusBadRequest || aerr.Code != "bad_request" || aerr.RequestID == "" {
		t.Errorf("aerr = %+v", aerr)
	}

	_, err = c.AutoFill(context.Background(), client.AutoFillRequest{Column: []string{"x"}, TopK: 500})
	if !errors.As(err, &aerr) || aerr.Code != "bad_request" {
		t.Errorf("top_k=500 err = %v", err)
	}

	// The single endpoints reject batch-only ids loudly.
	_, err = c.AutoFill(context.Background(), client.AutoFillRequest{ID: "x", Column: []string{"x"}})
	if !errors.As(err, &aerr) || aerr.Code != "bad_request" {
		t.Errorf("single call with id: err = %v", err)
	}
}

func TestBatchStreaming(t *testing.T) {
	c := testService(t)
	reqs := []client.AutoFillRequest{
		{ID: "a", Column: []string{"San Francisco", "Seattle"}},
		{ID: "bad", Column: nil}, // row-level validation error
		{ID: "c", Column: []string{"Portland"}},
	}
	got := make(map[int]client.BatchLine[client.AutoFillResponse])
	trailer, err := c.BatchAutoFill(context.Background(), reqs, func(ln client.BatchLine[client.AutoFillResponse]) error {
		got[ln.Index] = ln
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Results != 3 || trailer.Errors != 1 || trailer.Truncated {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.RequestID == "" {
		t.Error("trailer missing request_id")
	}
	if ln := got[0]; ln.Err != nil || !ln.Response.Found || ln.ID != "a" {
		t.Errorf("line 0 = %+v", ln)
	}
	if ln := got[1]; ln.Err == nil || ln.Err.Code != "bad_request" || ln.ID != "bad" {
		t.Errorf("line 1 = %+v", ln)
	}
	if ln := got[2]; ln.Err != nil || ln.ID != "c" {
		t.Errorf("line 2 = %+v", ln)
	}
}

func TestBatchCallbackAbort(t *testing.T) {
	c := testService(t)
	reqs := make([]client.AutoFillRequest, 8)
	for i := range reqs {
		reqs[i] = client.AutoFillRequest{Column: []string{"California"}}
	}
	sentinel := errors.New("stop here")
	calls := 0
	_, err := c.BatchAutoFill(context.Background(), reqs, func(client.BatchLine[client.AutoFillResponse]) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("callback ran %d times after abort", calls)
	}
}

// TestRetryOn429 exercises the retry loop against a fake server that
// rejects twice with the v1 overloaded envelope before answering, and
// asserts the advertised Retry-After was honored.
func TestRetryOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Request-ID", "test-req")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{
				"code": "overloaded", "message": "busy", "retry_after_ms": 50,
			}})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"found": false, "key": "k"})
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(2))
	t0 := time.Now()
	resp, err := c.Lookup(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Key != "k" {
		t.Errorf("resp = %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	// Two waits of retry_after_ms=50 each; generous upper bound for CI.
	if d := time.Since(t0); d < 100*time.Millisecond {
		t.Errorf("retries did not honor retry_after_ms: total %v", d)
	}
}

// TestRetryBudgetExhausted: a persistent 429 surfaces as an *APIError with
// the overloaded code and the server's retry advice.
func TestRetryBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{
			"code": "overloaded", "message": "busy", "retry_after_ms": 10,
		}})
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(1))
	_, err := c.Lookup(context.Background(), "k")
	var aerr *client.APIError
	if !errors.As(err, &aerr) || aerr.Code != "overloaded" || aerr.RetryAfter != 10*time.Millisecond {
		t.Fatalf("err = %v", err)
	}
}

// TestZeroRetries: WithRetries(0) returns the 429 immediately — what the
// load generator needs to count throttling truthfully.
func TestZeroRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{"code": "overloaded", "message": "busy"}})
	}))
	defer ts.Close()
	_, err := client.New(ts.URL, client.WithRetries(0)).Lookup(context.Background(), "k")
	var aerr *client.APIError
	if !errors.As(err, &aerr) || aerr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1", calls.Load())
	}
}

// TestLegacyErrorEnvelope: the SDK still understands a pre-v1 bare-string
// error body, reporting it with an empty Code.
func TestLegacyErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "old style"})
	}))
	defer ts.Close()
	_, err := client.New(ts.URL).Lookup(context.Background(), "k")
	var aerr *client.APIError
	if !errors.As(err, &aerr) || aerr.Code != "" || aerr.Message != "old style" {
		t.Fatalf("err = %v", err)
	}
}

// TestSeveredStream: a batch response that ends without a trailer is
// ErrSevered, never silently incomplete.
func TestSeveredStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("batch request Content-Type = %q, want application/x-ndjson", ct)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"index":0,"found":false,"mapping_index":-1}`)
		// no trailer
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	rows := 0
	_, err := c.BatchAutoFill(context.Background(), []client.AutoFillRequest{{Column: []string{"x"}}},
		func(client.BatchLine[client.AutoFillResponse]) error { rows++; return nil })
	if !errors.Is(err, client.ErrSevered) {
		t.Fatalf("err = %v, want client.ErrSevered", err)
	}
	if rows != 1 {
		t.Errorf("rows before severance = %d, want 1", rows)
	}
}

// TestRequestIDPropagation: the client's generated ID reaches the server
// and is echoed back in error envelopes.
func TestRequestIDPropagation(t *testing.T) {
	c := testService(t, client.WithRequestIDs(func() string { return "fixed-id-42" }))
	_, err := c.AutoFill(context.Background(), client.AutoFillRequest{})
	var aerr *client.APIError
	if !errors.As(err, &aerr) {
		t.Fatal(err)
	}
	if aerr.RequestID != "fixed-id-42" {
		t.Errorf("request id = %q, want fixed-id-42", aerr.RequestID)
	}
}

// TestSuccessResponseMeta: successful responses surface the echoed
// X-Request-ID header through the embedded ResponseMeta, so callers can
// cite the server's access-log line for any response, not just errors.
func TestSuccessResponseMeta(t *testing.T) {
	c := testService(t, client.WithRequestIDs(func() string { return "meta-id-7" }))
	ctx := context.Background()

	lk, err := c.Lookup(ctx, "California")
	if err != nil {
		t.Fatal(err)
	}
	if lk.RequestID != "meta-id-7" {
		t.Errorf("lookup request id = %q, want meta-id-7", lk.RequestID)
	}
	fill, err := c.AutoFill(ctx, client.AutoFillRequest{
		Column:   []string{"San Francisco"},
		Examples: []client.Example{{Left: "San Francisco", Right: "California"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fill.RequestID != "meta-id-7" {
		t.Errorf("autofill request id = %q, want meta-id-7", fill.RequestID)
	}
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.RequestID != "meta-id-7" {
		t.Errorf("healthz request id = %q, want meta-id-7", h.RequestID)
	}
	// The meta is transport metadata, not payload: it must not leak into a
	// marshalled response.
	data, err := json.Marshal(lk)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("meta-id-7")) {
		t.Errorf("request id leaked into JSON: %s", data)
	}
}
