package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// codedMappings builds a tiny mapping set whose right side carries the
// given prefix, so corpora and generations are distinguishable.
func codedMappings(prefix string) []*mapping.Mapping {
	states := []string{"California", "Washington", "Oregon", "Texas"}
	coded := make([]string, len(states))
	for i, s := range states {
		coded[i] = prefix + "-" + s[:2]
	}
	var bts []*table.BinaryTable
	for i := 0; i < 3; i++ {
		bts = append(bts, table.NewBinaryTable(i, i, fmt.Sprintf("%s%d.example", prefix, i), "s", "c", states, coded))
	}
	return []*mapping.Mapping{mapping.Build(0, bts)}
}

// multiCorpusService builds a real two-corpus server and a Client for it.
func multiCorpusService(t *testing.T) *client.Client {
	t.Helper()
	srv := serve.NewFromMappings(codedMappings("DEF"), serve.Options{CacheSize: 64})
	if _, err := srv.AddCorpus("tickers", codedMappings("TK")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// TestCorpusScopedQueries: the scoped handle answers from its corpus, the
// unscoped methods from the default one, through every typed method.
func TestCorpusScopedQueries(t *testing.T) {
	c := multiCorpusService(t)
	ctx := context.Background()
	tk := c.Corpus("tickers")
	if tk.Name() != "tickers" {
		t.Errorf("Name() = %q", tk.Name())
	}

	def, err := c.Lookup(ctx, "California")
	if err != nil {
		t.Fatal(err)
	}
	scoped, err := tk.Lookup(ctx, "California")
	if err != nil {
		t.Fatal(err)
	}
	if def.Value != "DEF-Ca" || scoped.Value != "TK-Ca" {
		t.Errorf("lookup values = %q / %q, want DEF-Ca / TK-Ca", def.Value, scoped.Value)
	}

	fill, err := tk.AutoFill(ctx, client.AutoFillRequest{Column: []string{"California", "Texas"}})
	if err != nil {
		t.Fatal(err)
	}
	if !fill.Found || fill.Filled[0].Value != "TK-Ca" {
		t.Errorf("scoped autofill = %+v", fill)
	}

	corr, err := tk.AutoCorrect(ctx, client.AutoCorrectRequest{
		Column: []string{"California", "Washington", "Oregon", "TK-Te"}, MinEach: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Found || len(corr.Corrections) != 1 || corr.Corrections[0].Suggested != "Texas" {
		t.Errorf("scoped autocorrect = %+v", corr)
	}

	join, err := tk.AutoJoin(ctx, client.AutoJoinRequest{
		KeysA: []string{"California", "Oregon"}, KeysB: []string{"TK-Ca", "TK-Or"}})
	if err != nil {
		t.Fatal(err)
	}
	if !join.Found || join.Bridged != 2 {
		t.Errorf("scoped autojoin = %+v", join)
	}

	// Batch streaming through the scoped path.
	var lines int
	trailer, err := tk.BatchAutoFill(ctx, []client.AutoFillRequest{
		{ID: "a", Column: []string{"California"}},
		{ID: "b", Column: []string{"Texas"}},
	}, func(ln client.BatchLine[client.AutoFillResponse]) error {
		lines++
		if ln.Err != nil {
			t.Errorf("row %d error: %v", ln.Index, ln.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 2 || trailer.Results != 2 || trailer.Errors != 0 {
		t.Errorf("batch: lines=%d trailer=%+v", lines, trailer)
	}

	// Independent per-corpus stats, shared server.
	st, err := tk.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corpus != "tickers" || st.Endpoints["lookup"].Requests != 1 {
		t.Errorf("scoped stats = corpus %q, lookup %d", st.Corpus, st.Endpoints["lookup"].Requests)
	}
	dst, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Corpus != client.DefaultCorpus || dst.Endpoints["lookup"].Requests != 1 {
		t.Errorf("default stats = corpus %q, lookup %d", dst.Corpus, dst.Endpoints["lookup"].Requests)
	}

	// Unknown corpus surfaces the corpus_not_found code.
	_, err = c.Corpus("nope").Lookup(ctx, "x")
	var aerr *client.APIError
	if !errors.As(err, &aerr) || aerr.Code != "corpus_not_found" || aerr.Status != http.StatusNotFound {
		t.Errorf("unknown corpus err = %v", err)
	}
}

// TestCorpusAdminLifecycle drives the lifecycle through the SDK: upload,
// list, replace, activate, rollback, delete.
func TestCorpusAdminLifecycle(t *testing.T) {
	c := multiCorpusService(t)
	ctx := context.Background()
	air := c.Corpus("airports")

	var snapA bytes.Buffer
	if err := snapshot.WriteV2(&snapA, codedMappings("A")); err != nil {
		t.Fatal(err)
	}
	put, err := air.Upload(ctx, snapA.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !put.Created || put.Version != 1 || put.Corpus != "airports" {
		t.Errorf("upload response = %+v", put)
	}

	infos, err := c.Corpora(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Name != "airports" {
		t.Errorf("corpora = %+v", infos)
	}

	var snapB bytes.Buffer
	if err := snapshot.WriteV2(&snapB, codedMappings("B")); err != nil {
		t.Fatal(err)
	}
	put, err = air.Upload(ctx, snapB.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if put.Created || put.Version != 2 {
		t.Errorf("replace response = %+v", put)
	}
	lk, _ := air.Lookup(ctx, "California")
	if lk.Value != "B-Ca" {
		t.Errorf("after replace: %+v", lk)
	}

	swap, err := air.Activate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if swap.Version != 1 || swap.PreviousVersion != 2 {
		t.Errorf("activate = %+v", swap)
	}
	lk, _ = air.Lookup(ctx, "California")
	if lk.Value != "A-Ca" {
		t.Errorf("after activate: %+v", lk)
	}

	swap, err = air.Rollback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if swap.Version != 2 || swap.PreviousVersion != 1 {
		t.Errorf("rollback = %+v", swap)
	}

	info, err := air.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || len(info.History) != 1 || info.History[0] != 1 {
		t.Errorf("info = %+v", info)
	}

	if err := air.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = air.Get(ctx)
	var aerr *client.APIError
	if !errors.As(err, &aerr) || aerr.Code != "corpus_not_found" {
		t.Errorf("after delete: %v", err)
	}

	// The default corpus refuses deletion.
	err = c.Corpus(client.DefaultCorpus).Delete(ctx)
	if !errors.As(err, &aerr) || aerr.Code != "bad_request" {
		t.Errorf("delete default: %v", err)
	}
}

// TestBackoffContextCancel is the satellite regression: a context
// cancelled while the client sleeps on a long Retry-After must surface the
// cancellation promptly instead of sleeping out the advertisement.
func TestBackoffContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // far longer than the test tolerates
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{
			"code": "overloaded", "message": "busy", "retry_after_ms": 30000,
		}})
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3), client.WithMaxRetryWait(time.Minute))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := c.Lookup(ctx, "k")
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if elapsed < 40*time.Millisecond {
		t.Errorf("returned after %v, before the cancellation even fired", elapsed)
	}

	// Same contract on the batch streaming path.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	t0 = time.Now()
	_, err = c.BatchAutoFill(ctx2, []client.AutoFillRequest{{Column: []string{"x"}}},
		func(client.BatchLine[client.AutoFillResponse]) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("batch cancellation took %v", d)
	}
}

// TestBackoffHonorsMaxRetryWait: retries never sleep longer than
// WithMaxRetryWait even when the server advertises a much larger
// Retry-After.
func TestBackoffHonorsMaxRetryWait(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "3600") // an hour
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{
				"code": "overloaded", "message": "busy", "retry_after_ms": 3600000,
			}})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"found": false, "key": "k"})
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(2), client.WithMaxRetryWait(30*time.Millisecond))
	t0 := time.Now()
	if _, err := c.Lookup(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	if calls != 3 {
		t.Errorf("server saw %d calls, want 3", calls)
	}
	// Two waits capped at 30ms each; anything near a real Retry-After
	// honor would blow far past this bound.
	if elapsed < 60*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("elapsed = %v, want two ~30ms capped waits", elapsed)
	}
}
