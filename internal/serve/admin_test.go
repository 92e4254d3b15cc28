package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mapsynth/internal/qos"
	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

// TestSnapshotUploadBound: -max-upload-bytes bounds the PUT body on both
// forms — raw snapshot uploads and the JSON path form — with the structured
// payload_too_large envelope, while an in-bound upload still loads.
func TestSnapshotUploadBound(t *testing.T) {
	var snap bytes.Buffer
	if err := snapshot.WriteV2(&snap, codedMappings("UP")); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServer(t, 8)
	srv.opts.MaxUploadBytes = 32
	h := srv.Handler()

	rec := do(t, h, http.MethodPut, "/v1/corpora/big", snap.Bytes(), "application/octet-stream")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status = %d, want 413: %s", rec.Code, rec.Body.String())
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != client.CodePayloadTooLarge {
		t.Errorf("code = %q, want %q", env.Error.Code, client.CodePayloadTooLarge)
	}
	if !strings.Contains(env.Error.Message, "32 bytes") {
		t.Errorf("message does not name the bound: %q", env.Error.Message)
	}
	if env.Error.RetryAfterMs != 0 {
		t.Errorf("payload_too_large must not advertise a retry delay, got %d", env.Error.RetryAfterMs)
	}
	if rec := do(t, h, http.MethodGet, "/v1/corpora/big", nil, ""); rec.Code != http.StatusNotFound {
		t.Errorf("oversized upload became a corpus: %d", rec.Code)
	}

	// The JSON path form is bounded by the same limit.
	big := `{"snapshot":"` + strings.Repeat("x", 64) + `"}`
	rec = do(t, h, http.MethodPut, "/v1/corpora/big", []byte(big), "application/json")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized JSON body status = %d, want 413: %s", rec.Code, rec.Body.String())
	}

	// A server with a roomy bound accepts the identical upload.
	roomy, _ := newTestServer(t, 8)
	roomy.opts.MaxUploadBytes = int64(snap.Len())
	rec = do(t, roomy.Handler(), http.MethodPut, "/v1/corpora/big", snap.Bytes(), "application/octet-stream")
	if rec.Code != http.StatusCreated {
		t.Errorf("in-bound upload status = %d, want 201: %s", rec.Code, rec.Body.String())
	}
}

// TestCorpusSnapshotDownload: GET /v1/corpora/{name}/snapshot returns
// loadable v2 bytes for in-memory and mmapped images alike, versioned via
// X-Corpus-Version — the wire contract snapshot-shipped replication rides.
func TestCorpusSnapshotDownload(t *testing.T) {
	// An image built in memory from mappings.
	srv, maps := newTestServer(t, 8)
	h := srv.Handler()
	rec := do(t, h, http.MethodGet, "/v1/corpora/default/snapshot", nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("download status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	if v := rec.Header().Get("X-Corpus-Version"); v != "1" {
		t.Errorf("X-Corpus-Version = %q, want 1", v)
	}
	got, err := snapshot.OpenBytes(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("downloaded bytes are not a v2 image: %v", err)
	}
	if got.Len() != len(maps) {
		t.Errorf("downloaded mappings = %d, want %d", got.Len(), len(maps))
	}

	// Round trip: the downloaded bytes are a valid upload body on another
	// node — exactly what a replica roll does.
	follower, _ := newTestServer(t, 8)
	fh := follower.Handler()
	up := do(t, fh, http.MethodPut, "/v1/corpora/shipped", rec.Body.Bytes(), "application/octet-stream")
	if up.Code != http.StatusCreated {
		t.Fatalf("shipped upload status = %d: %s", up.Code, up.Body.String())
	}
	var lr client.LookupResponse
	getJSON(t, fh, "/v1/corpora/shipped/lookup?key=California", &lr)
	if !lr.Found {
		t.Errorf("shipped corpus lookup = %+v", lr)
	}

	// Mmap-backed v2 state: served zero-copy from the mapped image, byte
	// for byte the file that was loaded.
	v2path := filepath.Join(t.TempDir(), "dl.snap2")
	if err := snapshot.WriteFileV2(v2path, codedMappings("DL")); err != nil {
		t.Fatal(err)
	}
	rec = putJSON(t, h, "/v1/corpora/v2c", map[string]string{"snapshot": v2path})
	if rec.Code != http.StatusCreated {
		t.Fatalf("v2 load status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, h, http.MethodGet, "/v1/corpora/v2c/snapshot", nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("v2 download status = %d", rec.Code)
	}
	if _, err := snapshot.OpenBytes(rec.Body.Bytes()); err != nil {
		t.Errorf("v2 download is not an openable v2 image: %v", err)
	}
}

// TestTenantsReload: POST /v1/tenants re-applies the -tenants grammar with
// boot-time semantics — named tenants get the new limits immediately,
// unnamed ones are re-minted from the new template, counters survive.
func TestTenantsReload(t *testing.T) {
	srv := NewFromMappings(testMappings(), Options{
		Tenants: []qos.Spec{{Name: "acme", Weight: 1, Rate: 0.001, Burst: 1}},
	})
	h := srv.Handler()

	asTenant := func(tenant string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/lookup?key=tcp", nil)
		req.Header.Set("X-Tenant", tenant)
		h.ServeHTTP(rec, req)
		return rec
	}

	// Drain acme's single-token bucket; the next request is quota-limited.
	if rec := asTenant("acme"); rec.Code != http.StatusOK {
		t.Fatalf("first acme request = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := asTenant("acme"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("drained acme request = %d, want 429", rec.Code)
	}

	// Reload with a generous rate: the very next request must pass — the
	// whole point of dynamic reload is no restart, no drained-bucket wait.
	rec := postJSON(t, h, "/v1/tenants", map[string]string{"tenants": "acme:3:1000:1000"}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("tenants reload = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := asTenant("acme"); rec.Code != http.StatusOK {
		t.Errorf("post-reload acme request = %d, want 200: %s", rec.Code, rec.Body.String())
	}

	// The new weight and rate are visible in /v1/stats, and the request
	// counters survived the swap.
	var stats struct {
		Tenants map[string]struct {
			Requests  int64   `json:"requests"`
			Throttled int64   `json:"throttled"`
			Weight    int     `json:"weight"`
			RateLimit float64 `json:"rate_limit,omitempty"`
		} `json:"tenants"`
	}
	getJSON(t, h, "/v1/stats", &stats)
	acme, ok := stats.Tenants["acme"]
	if !ok {
		t.Fatalf("acme missing from stats: %+v", stats.Tenants)
	}
	if acme.Weight != 3 || acme.RateLimit != 1000 {
		t.Errorf("acme limits = weight %d rate %v, want 3/1000", acme.Weight, acme.RateLimit)
	}
	if acme.Requests < 2 || acme.Throttled < 1 {
		t.Errorf("counters did not survive reload: %+v", acme)
	}

	// Malformed grammar is rejected and changes nothing.
	rec = postJSON(t, h, "/v1/tenants", map[string]string{"tenants": "acme:notanumber"}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad grammar = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	getJSON(t, h, "/v1/stats", &stats)
	if got := stats.Tenants["acme"].Weight; got != 3 {
		t.Errorf("failed reload mutated limits: weight = %d", got)
	}

	// An empty spec lifts every limit: previously throttled tenants flow.
	if rec := postJSON(t, h, "/v1/tenants", map[string]string{"tenants": ""}, nil); rec.Code != http.StatusOK {
		t.Fatalf("empty reload = %d", rec.Code)
	}
	for i := 0; i < 5; i++ {
		if rec := asTenant("acme"); rec.Code != http.StatusOK {
			t.Fatalf("unlimited acme request %d = %d", i, rec.Code)
		}
	}
}

// TestSetTenantsReMintsFromNewTemplate: tenants minted from the old "*"
// template pick up the new template on reload rather than keeping stale
// limits forever.
func TestSetTenantsReMintsFromNewTemplate(t *testing.T) {
	tmpl, err := qos.ParseSpecs("*:1:0.001:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFromMappings(testMappings(), Options{Tenants: tmpl})

	// Mint "walkin" from the tight template and drain its bucket.
	tn, err := srv.tenants.resolve("walkin")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := tn.limits.Load().bucket.Take(); !ok {
		t.Fatal("fresh bucket should have one token")
	}
	if ok, _ := tn.limits.Load().bucket.Take(); ok {
		t.Fatal("bucket should be drained")
	}

	loose, err := qos.ParseSpecs("*:5:1000:1000")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTenants(loose)

	tn2, err := srv.tenants.resolve("walkin")
	if err != nil {
		t.Fatal(err)
	}
	if tn2 != tn {
		t.Fatal("reload must keep the tenant entry, not replace it")
	}
	lim := tn2.limits.Load()
	ok2, _ := lim.bucket.Take()
	if lim.weight != 5 || !ok2 {
		t.Errorf("walkin not re-minted from new template: weight=%d", lim.weight)
	}
}

// TestRegistryConcurrentLifecycle hammers one corpus name with concurrent
// uploads, activates, deletes and reads under -race: versions must never
// regress and served states must never touch a closed mapping.
func TestRegistryConcurrentLifecycle(t *testing.T) {
	var v2 bytes.Buffer
	if err := snapshot.WriteV2(&v2, codedMappings("CC")); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()

	const (
		workers = 4
		iters   = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0: // upload a fresh version
					rec := do(t, h, http.MethodPut, "/v1/corpora/hot", v2.Bytes(), "application/octet-stream")
					if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
						t.Errorf("upload = %d: %s", rec.Code, rec.Body.String())
					}
				case 1: // activate a historical version (may legally miss)
					rec := do(t, h, http.MethodPost, "/v1/corpora/hot/activate",
						[]byte(fmt.Sprintf(`{"version":%d}`, i%3+1)), "application/json")
					if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity &&
						rec.Code != http.StatusNotFound {
						t.Errorf("activate = %d: %s", rec.Code, rec.Body.String())
					}
				case 2: // delete (may legally miss)
					rec := do(t, h, http.MethodDelete, "/v1/corpora/hot", nil, "")
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("delete = %d: %s", rec.Code, rec.Body.String())
					}
				default: // read through whatever state is live right now
					rec := do(t, h, http.MethodGet, "/v1/corpora/hot/lookup?key=California", nil, "")
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("lookup = %d: %s", rec.Code, rec.Body.String())
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The survivor (or a fresh install) must be fully usable — no version
	// lost, no state serving from an unmapped region.
	rec := do(t, h, http.MethodPut, "/v1/corpora/hot", v2.Bytes(), "application/octet-stream")
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		t.Fatalf("final upload = %d: %s", rec.Code, rec.Body.String())
	}
	var put struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &put); err != nil {
		t.Fatal(err)
	}
	if put.Version < 1 {
		t.Errorf("final version = %d", put.Version)
	}
	var lr client.LookupResponse
	getJSON(t, h, "/v1/corpora/hot/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "CC-Ca" {
		t.Errorf("final lookup = %+v", lr)
	}
	dl := do(t, h, http.MethodGet, "/v1/corpora/hot/snapshot", nil, "")
	if dl.Code != http.StatusOK || !bytes.Equal(dl.Body.Bytes(), v2.Bytes()) {
		t.Errorf("final snapshot download: code=%d, byte-identical=%v", dl.Code, bytes.Equal(dl.Body.Bytes(), v2.Bytes()))
	}
}

// TestMadviseSurfaced: with -madvise configured, a v2 load applies the hint
// and surfaces it in corpus metadata; in-memory images never claim one.
func TestMadviseSurfaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adv.snap2")
	if err := snapshot.WriteFileV2(path, codedMappings("AD")); err != nil {
		t.Fatal(err)
	}
	srv := NewFromMappings(testMappings(), Options{Madvise: snapshot.AdviseWillNeed})
	h := srv.Handler()
	rec := putJSON(t, h, "/v1/corpora/adv", map[string]string{"snapshot": path})
	if rec.Code != http.StatusCreated {
		t.Fatalf("v2 load = %d: %s", rec.Code, rec.Body.String())
	}
	var info struct {
		Format  string `json:"format"`
		Madvise string `json:"madvise"`
	}
	getJSON(t, h, "/v1/corpora/adv", &info)
	if info.Format != "v2" || info.Madvise != "willneed" {
		t.Errorf("adv corpus = format %q madvise %q, want v2/willneed", info.Format, info.Madvise)
	}
	// The in-memory default corpus shows no madvise.
	info.Format, info.Madvise = "", ""
	getJSON(t, h, "/v1/corpora/default", &info)
	if info.Madvise != "" {
		t.Errorf("in-memory corpus claims madvise %q", info.Madvise)
	}
}

func TestParseAdvice(t *testing.T) {
	cases := []struct {
		in      string
		want    snapshot.Advice
		wantErr bool
	}{
		{"", snapshot.AdviseNone, false},
		{"none", snapshot.AdviseNone, false},
		{"willneed", snapshot.AdviseWillNeed, false},
		{"random", snapshot.AdviseRandom, false},
		{"sequential", "", true},
	}
	for _, tc := range cases {
		got, err := snapshot.ParseAdvice(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseAdvice(%q) = %q, %v; want %q, err=%v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}
