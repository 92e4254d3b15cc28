package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// codedMappings builds a small mapping set whose right side carries the
// given prefix, so two generations (or two corpora) are distinguishable
// through any query endpoint.
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

// writeSnap persists maps to a temp snapshot file and returns its path.
func writeSnap(t *testing.T, maps []*mapping.Mapping, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := snapshot.WriteFileV2(path, maps); err != nil {
		t.Fatal(err)
	}
	return path
}

// do issues one request with an arbitrary method against h.
func do(t *testing.T, h http.Handler, method, path string, body []byte, contentType string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	h.ServeHTTP(rec, req)
	return rec
}

func putJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, h, http.MethodPut, path, b, "application/json")
}

// TestCorpusScopeParity is the multi-corpus acceptance parity test: every
// application endpoint must answer byte-identically at its unscoped /v1
// path and at the default corpus's scoped /v1/corpora/default path — the
// unscoped surface IS the scoped surface for one fixed name.
func TestCorpusScopeParity(t *testing.T) {
	srv, _ := newTestServer(t, 64)
	h := srv.Handler()
	const reqID = "scope-parity-id"

	cases := []struct {
		name     string
		method   string
		path     string // unscoped path; the scoped twin has /v1/corpora/default in place of /v1
		body     string
		volatile []string
	}{
		{"lookup", http.MethodGet, "/v1/lookup?key=California", "", nil},
		{"autofill", http.MethodPost, "/v1/autofill",
			`{"column":["San Francisco","Seattle"],"examples":[{"left":"San Francisco","right":"California"}]}`, nil},
		{"autocorrect", http.MethodPost, "/v1/autocorrect",
			`{"column":["California","Washington","CA","WA"]}`, nil},
		{"autojoin", http.MethodPost, "/v1/autojoin",
			`{"keys_a":["California","Oregon"],"keys_b":["CA","OR"]}`, nil},
		{"batch-autofill", http.MethodPost, "/v1/batch/autofill",
			`{"id":"a","column":["Seattle"]}` + "\n", nil},
		{"batch-autocorrect", http.MethodPost, "/v1/batch/autocorrect",
			`{"id":"b","column":["California","Washington","CA","WA"]}` + "\n", nil},
		{"batch-autojoin", http.MethodPost, "/v1/batch/autojoin",
			`{"id":"c","keys_a":["California"],"keys_b":["CA"]}` + "\n", nil},
		{"stats", http.MethodGet, "/v1/stats", "", []string{"uptime_s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			unscoped := doReq(t, h, tc.method, tc.path, tc.body, reqID)
			scoped := doReq(t, h, tc.method, "/v1/corpora/default"+strings.TrimPrefix(tc.path, "/v1"), tc.body, reqID)
			if unscoped.Code != http.StatusOK || scoped.Code != http.StatusOK {
				t.Fatalf("status unscoped=%d scoped=%d (%q)", unscoped.Code, scoped.Code, scoped.Body.String())
			}
			if len(tc.volatile) == 0 {
				if unscoped.Body.String() != scoped.Body.String() {
					t.Errorf("bodies differ:\nunscoped: %s\nscoped:   %s", unscoped.Body.String(), scoped.Body.String())
				}
				return
			}
			var um, sm map[string]any
			if err := json.Unmarshal(unscoped.Body.Bytes(), &um); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(scoped.Body.Bytes(), &sm); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.volatile {
				delete(um, f)
				delete(sm, f)
			}
			ub, _ := json.Marshal(um)
			sb, _ := json.Marshal(sm)
			if !bytes.Equal(ub, sb) {
				t.Errorf("bodies differ beyond volatile fields:\nunscoped: %s\nscoped:   %s", ub, sb)
			}
		})
	}

	// Both spellings must land on the same per-corpus counters: 2 lookups
	// above (one per spelling) → requests == 2.
	stats, ok := srv.CorpusStats(DefaultCorpus)
	if !ok {
		t.Fatal("default corpus stats missing")
	}
	if got := stats.Endpoints["lookup"].Requests; got != 2 {
		t.Errorf("lookup requests = %d, want 2 (scoped + unscoped share counters)", got)
	}
}

// TestCorpusLifecycle walks the admin surface end to end: create by PUT
// with a snapshot path, list, query scoped, replace, delete, and the
// protections around the default corpus and unknown names.
func TestCorpusLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, 16)
	h := srv.Handler()

	tickers := codedMappings("TK")
	tickersPath := writeSnap(t, tickers, "tickers.snap")

	// Create.
	rec := putJSON(t, h, "/v1/corpora/tickers", map[string]string{"snapshot": tickersPath})
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT create status = %d: %s", rec.Code, rec.Body.String())
	}
	var put map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &put); err != nil {
		t.Fatal(err)
	}
	if put["created"] != true || put["version"].(float64) != 1 || put["corpus"] != "tickers" {
		t.Errorf("PUT response = %v", put)
	}

	// Scoped query answers from the new corpus, default unaffected.
	var lr client.LookupResponse
	getJSON(t, h, "/v1/corpora/tickers/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "TK-Ca" {
		t.Errorf("tickers lookup = %+v, want TK-Ca", lr)
	}
	getJSON(t, h, "/v1/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "CA" {
		t.Errorf("default lookup = %+v, want CA", lr)
	}

	// List: both corpora, sorted, with metadata.
	var list struct {
		Count   int                 `json:"count"`
		Corpora []client.CorpusInfo `json:"corpora"`
	}
	getJSON(t, h, "/v1/corpora", &list)
	if list.Count != 2 || len(list.Corpora) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list.Corpora[0].Name != "default" || list.Corpora[1].Name != "tickers" {
		t.Errorf("list order = %s, %s", list.Corpora[0].Name, list.Corpora[1].Name)
	}
	if list.Corpora[1].Snapshot != tickersPath || list.Corpora[1].Version != 1 {
		t.Errorf("tickers entry = %+v", list.Corpora[1])
	}

	// Single resource GET.
	var info client.CorpusInfo
	getJSON(t, h, "/v1/corpora/tickers", &info)
	if info.Name != "tickers" || info.Mappings != 1 {
		t.Errorf("GET corpus = %+v", info)
	}

	// Replace: version bumps, history records v1.
	tickers2Path := writeSnap(t, codedMappings("T2"), "tickers2.snap")
	rec = putJSON(t, h, "/v1/corpora/tickers", map[string]string{"snapshot": tickers2Path})
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT replace status = %d: %s", rec.Code, rec.Body.String())
	}
	getJSON(t, h, "/v1/corpora/tickers", &info)
	if info.Version != 2 || len(info.History) != 1 || info.History[0] != 1 {
		t.Errorf("after replace: %+v", info)
	}
	getJSON(t, h, "/v1/corpora/tickers/lookup?key=California", &lr)
	if lr.Value != "T2-Ca" {
		t.Errorf("after replace lookup = %+v", lr)
	}

	// Unknown corpus: corpus_not_found envelope on query and admin paths.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/corpora/nope/lookup?key=x"},
		{http.MethodGet, "/v1/corpora/nope"},
		{http.MethodPost, "/v1/corpora/nope/rollback"},
		{http.MethodDelete, "/v1/corpora/nope"},
	} {
		rec := do(t, h, probe.method, probe.path, nil, "")
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s status = %d, want 404", probe.method, probe.path, rec.Code)
		}
		var env client.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != client.CodeCorpusNotFound {
			t.Errorf("%s %s envelope = %s", probe.method, probe.path, rec.Body.String())
		}
	}

	// Invalid names are rejected on PUT before any file I/O.
	rec = putJSON(t, h, "/v1/corpora/bad%2Fname", map[string]string{"snapshot": tickersPath})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid name PUT status = %d: %s", rec.Code, rec.Body.String())
	}

	// The default corpus cannot be deleted.
	rec = do(t, h, http.MethodDelete, "/v1/corpora/default", nil, "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("DELETE default status = %d, want 400", rec.Code)
	}

	// Delete tickers; its scoped paths turn corpus_not_found.
	rec = do(t, h, http.MethodDelete, "/v1/corpora/tickers", nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, h, http.MethodGet, "/v1/corpora/tickers/lookup?key=California", nil, "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("deleted corpus lookup status = %d, want 404", rec.Code)
	}
	getJSON(t, h, "/v1/corpora", &list)
	if list.Count != 1 {
		t.Errorf("after delete, list count = %d, want 1", list.Count)
	}

	// Wrong method on the collection and resource paths: JSON 405.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/corpora"},
		{http.MethodPatch, "/v1/corpora/default"},
		{http.MethodGet, "/v1/corpora/default/activate"},
		{http.MethodGet, "/v1/corpora/default/rollback"},
	} {
		rec := do(t, h, probe.method, probe.path, nil, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", probe.method, probe.path, rec.Code)
		}
	}
}

// TestActivateRollbackGolden is the acceptance round trip: load A, replace
// with B, activate A's version, roll back — every era's query responses
// must be byte-identical to the first time that state was live, proving
// activate/rollback restore the exact prior snapshot state.
func TestActivateRollbackGolden(t *testing.T) {
	mapsA := codedMappings("A")
	srv := NewFromMappings(mapsA, Options{CacheSize: 16})
	h := srv.Handler()

	lookupBody := func() string {
		rec := do(t, h, http.MethodGet, "/v1/corpora/default/lookup?key=California", nil, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("lookup status = %d", rec.Code)
		}
		return rec.Body.String()
	}
	fillBody := func() string {
		rec := do(t, h, http.MethodPost, "/v1/corpora/default/autofill",
			[]byte(`{"column":["California","Texas"],"examples":[{"left":"Washington","right":"`+lookupAbbr(t, h)+`"}]}`), "application/json")
		if rec.Code != http.StatusOK {
			t.Fatalf("autofill status = %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}

	goldenA1, goldenA1Fill := lookupBody(), fillBody()

	// Replace with generation B.
	pathB := writeSnap(t, codedMappings("B"), "b.snap")
	if rec := putJSON(t, h, "/v1/corpora/default", map[string]string{"snapshot": pathB}); rec.Code != http.StatusOK {
		t.Fatalf("PUT status = %d: %s", rec.Code, rec.Body.String())
	}
	goldenB := lookupBody()
	if goldenB == goldenA1 {
		t.Fatal("generations A and B are not distinguishable; bad test setup")
	}

	// Activate version 1 (A) explicitly.
	rec := do(t, h, http.MethodPost, "/v1/corpora/default/activate", []byte(`{"version":1}`), "application/json")
	if rec.Code != http.StatusOK {
		t.Fatalf("activate status = %d: %s", rec.Code, rec.Body.String())
	}
	var swap map[string]any
	json.Unmarshal(rec.Body.Bytes(), &swap)
	if swap["version"].(float64) != 1 || swap["previous_version"].(float64) != 2 {
		t.Errorf("activate response = %v", swap)
	}
	if got := lookupBody(); got != goldenA1 {
		t.Errorf("after activate(1):\n got %s\nwant %s", got, goldenA1)
	}
	if got := fillBody(); got != goldenA1Fill {
		t.Errorf("after activate(1) autofill:\n got %s\nwant %s", got, goldenA1Fill)
	}

	// Roll back: restores exactly the pre-activate live state (B).
	rec = do(t, h, http.MethodPost, "/v1/corpora/default/rollback", nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("rollback status = %d: %s", rec.Code, rec.Body.String())
	}
	json.Unmarshal(rec.Body.Bytes(), &swap)
	if swap["version"].(float64) != 2 || swap["previous_version"].(float64) != 1 {
		t.Errorf("rollback response = %v", swap)
	}
	if got := lookupBody(); got != goldenB {
		t.Errorf("after rollback:\n got %s\nwant %s", got, goldenB)
	}

	// Activating the live version is a no-op success.
	rec = do(t, h, http.MethodPost, "/v1/corpora/default/activate", []byte(`{"version":2}`), "application/json")
	if rec.Code != http.StatusOK {
		t.Errorf("activate live version status = %d", rec.Code)
	}

	// Activating an unknown version is unprocessable and changes nothing.
	rec = do(t, h, http.MethodPost, "/v1/corpora/default/activate", []byte(`{"version":99}`), "application/json")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("activate unknown version status = %d, want 422", rec.Code)
	}
	if got := lookupBody(); got != goldenB {
		t.Errorf("failed activate changed live state")
	}

	// A missing/invalid version is a bad request.
	rec = do(t, h, http.MethodPost, "/v1/corpora/default/activate", []byte(`{}`), "application/json")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("activate without version status = %d, want 400", rec.Code)
	}
}

// lookupAbbr fetches the current mapped value for Washington so the golden
// autofill request uses a consistent in-era example.
func lookupAbbr(t *testing.T, h http.Handler) string {
	t.Helper()
	var lr client.LookupResponse
	getJSON(t, h, "/v1/corpora/default/lookup?key=Washington", &lr)
	if !lr.Found {
		t.Fatal("Washington not found")
	}
	return lr.Value
}

// TestRollbackWithoutHistory: a fresh corpus has nothing to roll back to.
func TestRollbackWithoutHistory(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()
	rec := do(t, h, http.MethodPost, "/v1/corpora/default/rollback", nil, "")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("rollback status = %d, want 422 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "no prior version") {
		t.Errorf("rollback error = %s", rec.Body.String())
	}
}

// TestHistoryDepthBound: the ring keeps only the newest HistoryDepth
// states; older versions stop being activatable.
func TestHistoryDepthBound(t *testing.T) {
	srv := NewFromMappings(codedMappings("G0"), Options{HistoryDepth: 2})
	for i := 1; i <= 4; i++ {
		if _, err := srv.AddCorpus(DefaultCorpus, codedMappings(fmt.Sprintf("G%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Handler()
	var info client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &info)
	if info.Version != 5 || len(info.History) != 2 {
		t.Fatalf("info = %+v, want version 5 with 2 history entries", info)
	}
	if info.History[0] != 3 || info.History[1] != 4 {
		t.Errorf("history = %v, want [3 4]", info.History)
	}
	// Version 1 fell off the ring.
	rec := do(t, h, http.MethodPost, "/v1/corpora/default/activate", []byte(`{"version":1}`), "application/json")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("activate evicted version status = %d, want 422", rec.Code)
	}
}

// TestCorpusUpload: PUT with a raw snapshot body (no server-side file)
// loads the corpus directly from the uploaded bytes.
func TestCorpusUpload(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()

	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, codedMappings("UP")); err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, http.MethodPut, "/v1/corpora/uploaded", buf.Bytes(), "application/octet-stream")
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", rec.Code, rec.Body.String())
	}
	var lr client.LookupResponse
	getJSON(t, h, "/v1/corpora/uploaded/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "UP-Ca" {
		t.Errorf("uploaded lookup = %+v", lr)
	}

	// An uploaded corpus has no path: a path-less re-read must fail with a
	// useful message, not silently no-op.
	rec = putJSON(t, h, "/v1/corpora/uploaded", map[string]string{})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "uploaded") {
		t.Errorf("re-read uploaded corpus = %d %s", rec.Code, rec.Body.String())
	}

	// A JSON body without a JSON Content-Type (curl -d sends
	// form-urlencoded) is still recognized as the path form by sniffing
	// the first byte — snapshot files open with the MSNP magic, not '{'.
	curlPath := writeSnap(t, codedMappings("CU"), "curl.snap")
	rec = do(t, h, http.MethodPut, "/v1/corpora/curlish",
		[]byte(`{"snapshot":"`+curlPath+`"}`), "application/x-www-form-urlencoded")
	if rec.Code != http.StatusCreated {
		t.Errorf("curl-style PUT status = %d: %s", rec.Code, rec.Body.String())
	}
	getJSON(t, h, "/v1/corpora/curlish/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "CU-Ca" {
		t.Errorf("curl-style corpus lookup = %+v", lr)
	}
	// Leading whitespace is legal JSON; only the snapshot magic means
	// upload.
	rec = do(t, h, http.MethodPut, "/v1/corpora/curlish",
		[]byte("  \n"+`{"snapshot":"`+curlPath+`"}`), "application/x-www-form-urlencoded")
	if rec.Code != http.StatusOK {
		t.Errorf("whitespace-prefixed JSON PUT status = %d: %s", rec.Code, rec.Body.String())
	}

	// Garbage bytes are rejected and never become a corpus.
	rec = do(t, h, http.MethodPut, "/v1/corpora/garbage", []byte("not a snapshot"), "application/octet-stream")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("garbage upload status = %d, want 422", rec.Code)
	}
	if rec := do(t, h, http.MethodGet, "/v1/corpora/garbage", nil, ""); rec.Code != http.StatusNotFound {
		t.Errorf("garbage corpus visible after failed upload: %d", rec.Code)
	}
}

// TestHealthzPerCorpus: every corpus appears with its metadata; readiness
// is governed by the default corpus alone.
func TestHealthzPerCorpus(t *testing.T) {
	srv, maps := newTestServer(t, 8)
	if _, err := srv.AddCorpus("tickers", codedMappings("TK")); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	var health struct {
		Status  string                         `json:"status"`
		Uptime  float64                        `json:"uptime_s"`
		Corpora map[string]client.CorpusHealth `json:"corpora"`
	}
	if rec := getJSON(t, h, "/v1/healthz", &health); rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	if health.Status != "ok" || len(health.Corpora) != 2 {
		t.Fatalf("healthz = %+v", health)
	}
	if def := health.Corpora["default"]; def.Mappings != len(maps) || def.Version != 1 {
		t.Errorf("default entry = %+v", def)
	}
	if tk := health.Corpora["tickers"]; tk.Mappings != 1 || tk.Pairs == 0 {
		t.Errorf("tickers entry = %+v", tk)
	}

	// A server with extra corpora but no default is not ready.
	empty := newServer(Options{})
	if _, err := empty.AddCorpus("side", codedMappings("S")); err != nil {
		t.Fatal(err)
	}
	rec := do(t, empty.Handler(), http.MethodGet, "/v1/healthz", nil, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("no-default healthz status = %d, want 503", rec.Code)
	}
}

// TestReloadFailureKeepsCounterAndNamesCorpus is the regression test for
// the reload error contract: a failed reload names the corpus and the
// attempted path in the envelope message, and never bumps the corpus's
// reload counter.
func TestReloadFailureKeepsCounterAndNamesCorpus(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()
	before := srv.Stats().Reloads

	missing := filepath.Join(t.TempDir(), "missing.snap")
	rec := postJSON(t, h, "/v1/reload", map[string]string{"snapshot": missing}, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("failed reload status = %d: %s", rec.Code, rec.Body.String())
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, `corpus "default"`) {
		t.Errorf("error message %q does not name the corpus", env.Error.Message)
	}
	if !strings.Contains(env.Error.Message, missing) {
		t.Errorf("error message %q does not name the attempted path", env.Error.Message)
	}
	if after := srv.Stats().Reloads; after != before {
		t.Errorf("failed reload bumped the counter: %d -> %d", before, after)
	}

	// Same contract on the scoped PUT path for a non-default corpus.
	if _, err := srv.AddCorpus("side", codedMappings("S")); err != nil {
		t.Fatal(err)
	}
	sideBefore, _ := srv.CorpusStats("side")
	rec = putJSON(t, h, "/v1/corpora/side", map[string]string{"snapshot": missing})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("failed side reload status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, `corpus "side"`) || !strings.Contains(env.Error.Message, missing) {
		t.Errorf("side error message = %q", env.Error.Message)
	}
	sideAfter, _ := srv.CorpusStats("side")
	if sideAfter.Reloads != sideBefore.Reloads {
		t.Errorf("failed side reload bumped the counter: %d -> %d", sideBefore.Reloads, sideAfter.Reloads)
	}
}

// TestTwoCorporaIndependentStats: traffic against two corpora lands on
// disjoint counters while sharing one batch limiter.
func TestTwoCorporaIndependentStats(t *testing.T) {
	srv, _ := newTestServer(t, 16)
	if _, err := srv.AddCorpus("tickers", codedMappings("TK")); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	for i := 0; i < 3; i++ {
		getJSON(t, h, "/v1/corpora/tickers/lookup?key=California", nil)
	}
	getJSON(t, h, "/v1/lookup?key=California", nil)
	postJSON(t, h, "/v1/corpora/tickers/autofill", map[string]any{"column": []string{"California"}}, nil)

	def, _ := srv.CorpusStats(DefaultCorpus)
	tk, _ := srv.CorpusStats("tickers")
	if def.Endpoints["lookup"].Requests != 1 || tk.Endpoints["lookup"].Requests != 3 {
		t.Errorf("lookup counters: default=%d tickers=%d, want 1/3",
			def.Endpoints["lookup"].Requests, tk.Endpoints["lookup"].Requests)
	}
	if def.Endpoints["autofill"].Requests != 0 || tk.Endpoints["autofill"].Requests != 1 {
		t.Errorf("autofill counters: default=%d tickers=%d, want 0/1",
			def.Endpoints["autofill"].Requests, tk.Endpoints["autofill"].Requests)
	}
	if def.Corpus != "default" || tk.Corpus != "tickers" {
		t.Errorf("stats corpus labels: %q, %q", def.Corpus, tk.Corpus)
	}
	// The cache sections are independent too: tickers had 1 miss + 2 hits.
	if tk.Cache.Hits != 2 || tk.Cache.Misses != 1 {
		t.Errorf("tickers cache = %+v", tk.Cache)
	}
}

// TestServerOptionsCorpora: New loads every Options.Corpora entry and
// rejects a duplicate default.
func TestServerOptionsCorpora(t *testing.T) {
	defPath := writeSnap(t, testMappings(), "def.snap")
	tkPath := writeSnap(t, codedMappings("TK"), "tk.snap")

	srv, err := New(Options{
		SnapshotPath: defPath,
		Corpora:      map[string]string{"tickers": tkPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.CorpusNames(); len(got) != 2 || got[0] != "default" || got[1] != "tickers" {
		t.Fatalf("corpora = %v", got)
	}
	var lr client.LookupResponse
	getJSON(t, srv.Handler(), "/v1/corpora/tickers/lookup?key=Texas", &lr)
	if !lr.Found || lr.Value != "TK-Te" {
		t.Errorf("tickers lookup = %+v", lr)
	}

	if _, err := New(Options{
		SnapshotPath: defPath,
		Corpora:      map[string]string{"default": tkPath},
	}); err == nil {
		t.Error("duplicate default corpus accepted")
	}
	if _, err := New(Options{
		SnapshotPath: defPath,
		Corpora:      map[string]string{"bad/name": tkPath},
	}); err == nil {
		t.Error("invalid corpus name accepted")
	}
}

// TestReloadAll re-reads every corpus that has a path and skips uploaded
// ones.
func TestReloadAll(t *testing.T) {
	defPath := writeSnap(t, codedMappings("D1"), "def.snap")
	srv, err := New(Options{SnapshotPath: defPath})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, codedMappings("UP")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.LoadCorpusSnapshot("uploaded", buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Rewrite the default snapshot in place; ReloadAll must pick it up.
	if err := snapshot.WriteFileV2(defPath, codedMappings("D2")); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	var lr client.LookupResponse
	getJSON(t, srv.Handler(), "/v1/lookup?key=California", &lr)
	if lr.Value != "D2-Ca" {
		t.Errorf("after ReloadAll: %+v, want D2-Ca", lr)
	}
	// The uploaded corpus survived untouched.
	getJSON(t, srv.Handler(), "/v1/corpora/uploaded/lookup?key=California", &lr)
	if lr.Value != "UP-Ca" {
		t.Errorf("uploaded corpus after ReloadAll: %+v", lr)
	}
}
