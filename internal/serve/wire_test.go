package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mapsynth/internal/qos"
	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire from the live handlers")

// wireRequestID is the X-Request-ID every wire exchange sends, so bodies
// that echo it are reproducible.
const wireRequestID = "wire-golden"

// wireCase is one request of the wire golden, issued against one of the
// servers runWire builds.
type wireCase struct {
	name   string
	server string // key into runWire's handlers
	method string
	path   string
	ctype  string // request Content-Type; empty sends none
	body   string
}

// wireExchange is one recorded answer.
type wireExchange struct {
	wireCase
	rec *httptest.ResponseRecorder
}

// runWire builds the golden's servers and sends every case, in order,
// against them. The order matters: the main server's counters, versions
// and ingest state accumulate across the sequence. root is the directory
// holding every file the servers read or write.
func runWire(t *testing.T) (exchanges []wireExchange, root string) {
	t.Helper()
	root = t.TempDir()
	snap := filepath.Join(root, "default.snap")
	side := filepath.Join(root, "side.snap")
	if err := snapshot.WriteFileV2(snap, testMappings()); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileV2(side, codedMappings("SD")); err != nil {
		t.Fatal(err)
	}
	upload, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	ingestDir := filepath.Join(root, "ingest")
	if err := os.Mkdir(ingestDir, 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{SnapshotPath: snap, CacheSize: 16, IngestDir: ingestDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// A server whose only batch request slot is held answers overloaded.
	busy, _ := newTestServer(t, 8)
	busy.batch = newBatchLimiter(1)
	busy.batch.requestSem <- struct{}{}
	// A metered default tenant: the first request drains its bucket. Rate
	// 0.5 with burst 1 owes just under 2s, a stable Retry-After of 2.
	quota := NewFromMappings(testMappings(), Options{
		Tenants: []qos.Spec{{Name: "default", Weight: 1, Rate: 0.5, Burst: 1}},
	})
	// A 16-byte upload bound; no IngestDir, so ingestion is off.
	small := NewFromMappings(testMappings(), Options{MaxUploadBytes: 16})
	handlers := map[string]http.Handler{
		"main":  srv.Handler(),
		"busy":  busy.Handler(),
		"quota": quota.Handler(),
		"small": small.Handler(),
		"empty": newServer(Options{}).Handler(),
	}

	const (
		fillBody    = `{"column":["San Francisco","Seattle","Atlantis"],"examples":[{"left":"San Francisco","right":"California"}]}`
		correctBody = `{"column":["California","Washington","CA","WA"]}`
		joinBody    = `{"keys_a":["California","Oregon","Atlantis"],"keys_b":["CA","OR"]}`
		ndjson      = "application/x-ndjson"
		octets      = "application/octet-stream"
	)
	tables := `{"domain":"towns.example","title":"towns","columns":[{"name":"town","values":["Springfield","Shelbyville","Ogdenville","North Haverbrook","Capital City"]},{"name":"code","values":["IL-1","IL-2","IL-3","IL-4","IL-5"]}]}
{"domain":"gazetteer.example","columns":[{"name":"town","values":["Springfield","Shelbyville","Ogdenville","North Haverbrook","Capital City"]},{"name":"code","values":["IL-1","IL-2","IL-3","IL-4","IL-5"]}]}
{"domain":"bad.example","columns":[{"name":"only","values":["x"]}]}
{"domain":"cut.example","columns":
`
	cases := []wireCase{
		// Lookup: hit, cache hit under another spelling, miss, errors.
		{name: "lookup", path: "/v1/lookup?key=California"},
		{name: "lookup-cached", path: "/v1/lookup?key=%20california%20"},
		{name: "lookup-alternatives", path: "/v1/lookup?key=Seattle"},
		{name: "lookup-miss", path: "/v1/lookup?key=Atlantis"},
		{name: "lookup-missing-key", path: "/v1/lookup"},
		{name: "lookup-wrong-method", method: http.MethodPost, path: "/v1/lookup?key=California"},
		{name: "lookup-scoped", path: "/v1/corpora/default/lookup?key=Portland"},
		{name: "lookup-corpus-not-found", path: "/v1/corpora/nope/lookup?key=x"},

		// The three applications: answer, top-K, miss, errors.
		{name: "autofill", method: http.MethodPost, path: "/v1/autofill", body: fillBody},
		{name: "autofill-topk", method: http.MethodPost, path: "/v1/autofill", body: `{"column":["California","Washington"],"top_k":3}`},
		{name: "autofill-miss", method: http.MethodPost, path: "/v1/autofill", body: `{"column":["Atlantis","Lemuria"]}`},
		{name: "autofill-empty-column", method: http.MethodPost, path: "/v1/autofill", body: `{"column":[]}`},
		{name: "autofill-unknown-field", method: http.MethodPost, path: "/v1/autofill", body: `{"colunm":["x"]}`},
		{name: "autofill-top-k-range", method: http.MethodPost, path: "/v1/autofill", body: `{"column":["x"],"top_k":101}`},
		{name: "autofill-min-coverage-range", method: http.MethodPost, path: "/v1/autofill", body: `{"column":["x"],"min_coverage":1.5}`},
		{name: "autofill-malformed", method: http.MethodPost, path: "/v1/autofill", body: `{"column":`},
		{name: "autofill-wrong-method", path: "/v1/autofill"},
		{name: "autocorrect", method: http.MethodPost, path: "/v1/autocorrect", body: correctBody},
		{name: "autocorrect-topk", method: http.MethodPost, path: "/v1/autocorrect", body: `{"column":["California","Washington","CA","WA"],"top_k":2,"min_each":1}`},
		{name: "autocorrect-min-each-range", method: http.MethodPost, path: "/v1/autocorrect", body: `{"column":["x"],"min_each":-2}`},
		{name: "autojoin", method: http.MethodPost, path: "/v1/autojoin", body: joinBody},
		{name: "autojoin-topk", method: http.MethodPost, path: "/v1/autojoin", body: `{"keys_a":["California","Oregon"],"keys_b":["CA","OR"],"top_k":2}`},
		{name: "autojoin-empty-keys", method: http.MethodPost, path: "/v1/autojoin", body: `{"keys_a":["x"],"keys_b":[]}`},
		{name: "not-found", path: "/v1/nope"},

		// Batch streams: answers, a row error, then a cut line that
		// truncates the stream.
		{name: "batch-autofill", method: http.MethodPost, path: "/v1/batch/autofill", ctype: ndjson,
			body: `{"id":"a","column":["San Francisco","Seattle"],"examples":[{"left":"San Francisco","right":"California"}]}` + "\n" +
				`{"id":"b","column":[]}` + "\n" + `{"column":["California","Washington"],"top_k":2}` + "\n" + `{"id":"c","column":`},
		{name: "batch-autocorrect", method: http.MethodPost, path: "/v1/batch/autocorrect", ctype: ndjson,
			body: `{"id":"a","column":["California","Washington","CA","WA"]}` + "\n" +
				`{"id":"b","column":["x"],"min_each":-1}` + "\n" + `{"id":"c","column":["Oregon"],"colunm":1}` + "\n"},
		{name: "batch-autojoin", method: http.MethodPost, path: "/v1/batch/autojoin", ctype: ndjson,
			body: `{"id":"a","keys_a":["California","Oregon"],"keys_b":["CA","OR"]}` + "\n" +
				`{"id":"b","keys_a":[],"keys_b":["CA"]}` + "\n" + `{"keys_a":["Atlantis"],"keys_b":["AT"],"top_k":1}` + "\n" + `not json`},
		{name: "batch-scoped", method: http.MethodPost, path: "/v1/corpora/default/batch/autofill", ctype: ndjson,
			body: `{"column":["Seattle"]}` + "\n"},
		{name: "batch-wrong-method", path: "/v1/batch/autojoin"},

		// Health, stats and the corpora admin surface.
		{name: "healthz", path: "/v1/healthz"},
		{name: "healthz-wrong-method", method: http.MethodPost, path: "/v1/healthz"},
		{name: "stats", path: "/v1/stats"},
		{name: "corpora-list", path: "/v1/corpora"},
		{name: "corpora-wrong-method", method: http.MethodPost, path: "/v1/corpora"},
		{name: "corpus-get", path: "/v1/corpora/default"},
		{name: "corpus-put-create", method: http.MethodPut, path: "/v1/corpora/side", ctype: "application/json", body: `{"snapshot":"` + side + `"}`},
		{name: "corpus-put-replace", method: http.MethodPut, path: "/v1/corpora/side", ctype: "application/json", body: `{}`},
		{name: "corpus-put-upload", method: http.MethodPut, path: "/v1/corpora/up", ctype: octets, body: string(upload)},
		{name: "corpus-put-missing-file", method: http.MethodPut, path: "/v1/corpora/side", ctype: "application/json", body: `{"snapshot":"` + filepath.Join(root, "missing.snap") + `"}`},
		{name: "corpus-put-bad-name", method: http.MethodPut, path: "/v1/corpora/bad%20name", ctype: "application/json", body: `{}`},
		{name: "corpus-put-unknown-field", method: http.MethodPut, path: "/v1/corpora/side", ctype: "application/json", body: `{"snap":"x"}`},
		{name: "corpus-get-side", path: "/v1/corpora/side"},
		{name: "corpus-activate", method: http.MethodPost, path: "/v1/corpora/side/activate", body: `{"version":1}`},
		{name: "corpus-activate-evicted", method: http.MethodPost, path: "/v1/corpora/side/activate", body: `{"version":99}`},
		{name: "corpus-activate-zero", method: http.MethodPost, path: "/v1/corpora/side/activate", body: `{"version":0}`},
		{name: "corpus-rollback", method: http.MethodPost, path: "/v1/corpora/side/rollback"},
		{name: "corpus-rollback-wrong-method", path: "/v1/corpora/side/rollback"},
		{name: "corpus-snapshot", path: "/v1/corpora/side/snapshot"},
		{name: "corpus-stats", path: "/v1/corpora/side/stats"},
		{name: "corpus-delete", method: http.MethodDelete, path: "/v1/corpora/side"},
		{name: "corpus-delete-again", method: http.MethodDelete, path: "/v1/corpora/side"},
		{name: "corpus-delete-default", method: http.MethodDelete, path: "/v1/corpora/default"},
		{name: "corpus-patch", method: http.MethodPatch, path: "/v1/corpora/up"},

		// Reload and tenants.
		{name: "reload", method: http.MethodPost, path: "/v1/reload", ctype: "application/json", body: `{}`},
		{name: "reload-rebuild-unconfigured", method: http.MethodPost, path: "/v1/reload", ctype: "application/json", body: `{"rebuild":true}`},
		{name: "reload-exclusive", method: http.MethodPost, path: "/v1/reload", ctype: "application/json", body: `{"rebuild":true,"snapshot":"x"}`},
		{name: "reload-wrong-method", path: "/v1/reload"},
		{name: "tenants", method: http.MethodPost, path: "/v1/tenants", body: `{"tenants":"interactive:4,bulk:1:50:10"}`},
		{name: "tenants-bad-spec", method: http.MethodPost, path: "/v1/tenants", body: `{"tenants":"a:b:c"}`},

		// Live ingestion, then the surfaces that report on it.
		{name: "ingest", method: http.MethodPost, path: "/v1/corpora/default/tables?wait=1", ctype: ndjson, body: tables},
		{name: "ingest-corpus-not-found", method: http.MethodPost, path: "/v1/corpora/nope/tables", ctype: ndjson, body: tables},
		{name: "ingest-wrong-method", path: "/v1/corpora/default/tables"},
		{name: "lookup-ingested", path: "/v1/lookup?key=Springfield"},
		{name: "healthz-after-ingest", path: "/v1/healthz"},
		{name: "stats-after-ingest", path: "/v1/stats"},
		{name: "corpus-get-after-ingest", path: "/v1/corpora/default"},
		{name: "corpora-list-after-ingest", path: "/v1/corpora"},
		{name: "metrics", path: "/v1/metrics"},

		// Error codes that need a server in a particular state.
		{name: "overloaded", server: "busy", method: http.MethodPost, path: "/v1/batch/autofill", ctype: ndjson, body: `{"column":["x"]}` + "\n"},
		{name: "quota-drain", server: "quota", path: "/v1/lookup?key=California"},
		{name: "quota-exhausted", server: "quota", path: "/v1/lookup?key=California"},
		{name: "payload-too-large", server: "small", method: http.MethodPut, path: "/v1/corpora/up", ctype: octets, body: string(upload)},
		{name: "ingest-disabled", server: "small", method: http.MethodPost, path: "/v1/corpora/default/tables?wait=1", ctype: ndjson, body: tables},
		{name: "not-ready-healthz", server: "empty", path: "/v1/healthz"},
		{name: "not-ready-lookup", server: "empty", path: "/v1/lookup?key=x"},
	}
	for _, c := range cases {
		if c.server == "" {
			c.server = "main"
		}
		if c.method == "" {
			c.method = http.MethodGet
		}
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		req.Header.Set("X-Request-ID", wireRequestID)
		if c.ctype != "" {
			req.Header.Set("Content-Type", c.ctype)
		}
		rec := httptest.NewRecorder()
		handlers[c.server].ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Request-ID"); got != wireRequestID {
			t.Errorf("%s: X-Request-ID = %q, want %q", c.name, got, wireRequestID)
		}
		exchanges = append(exchanges, wireExchange{c, rec})
	}
	return exchanges, root
}

// wireVolatile matches the JSON members whose values are clock readings:
// uptimes, ages, load times, durations and latency percentiles.
var wireVolatile = regexp.MustCompile(`"(uptime_s|age_s|loaded_at|duration_ms|activation_s|lag_seconds|last_[a-z]+_ms|mean_ms|p50_ms|p95_ms|p99_ms)":("[^"]*"|[-+0-9.eE]+)`)

// wireRecord renders one exchange as its golden text: request line,
// status, the headers clients act on, and the body with clock readings
// blanked and root replaced by $ROOT. NDJSON answer lines arrive in
// completion order, which is not part of the contract, so every line but
// the trailer is sorted. Snapshot bytes are summarized by length and
// SHA-256; the metrics exposition is all counters and timings and has its
// own goldens, so only its status and type are recorded.
func wireRecord(x wireExchange, root string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\nstatus: %d\ncontent-type: %s\n", x.method, strings.ReplaceAll(x.path, root, "$ROOT"), x.rec.Code, x.rec.Header().Get("Content-Type"))
	for _, h := range []string{"Retry-After", "X-Corpus-Version"} {
		if v := x.rec.Header().Get(h); v != "" {
			fmt.Fprintf(&b, "%s: %s\n", strings.ToLower(h), v)
		}
	}
	b.WriteString("\n")
	body := x.rec.Body.Bytes()
	switch ct := x.rec.Header().Get("Content-Type"); {
	case ct == "application/octet-stream":
		fmt.Fprintf(&b, "%d bytes, sha256 %x\n", len(body), sha256.Sum256(body))
		return b.String()
	case strings.HasPrefix(ct, "text/plain"):
		b.WriteString("(exposition elided)\n")
		return b.String()
	}
	text := wireVolatile.ReplaceAllString(string(body), `"$1":"~"`)
	text = strings.ReplaceAll(text, root, "$ROOT")
	if x.rec.Header().Get("Content-Type") == "application/x-ndjson" {
		lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
		if n := len(lines); n > 1 {
			sort.Strings(lines[:n-1])
		}
		text = strings.Join(lines, "") + "\n"
	}
	b.WriteString(text)
	return b.String()
}

// TestWireGolden pins the bytes of the v1 surface: status, Content-Type
// and body of every endpoint, its success shapes and every error code a
// handler reaches end to end (internal and ingest_log_failed have no
// deterministic trigger; TestErrorEnvelopeGoldens and
// TestIngestLogFailedIsDeclared pin theirs). Run with -update-wire after
// a change that means to alter the wire.
func TestWireGolden(t *testing.T) {
	exchanges, root := runWire(t)
	dir := filepath.Join("testdata", "wire")
	if *updateWire {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, x := range exchanges {
		file := filepath.Join(dir, x.name+".txt")
		if seen[file] {
			t.Fatalf("duplicate wire case %q", x.name)
		}
		seen[file] = true
		got := wireRecord(x, root)
		if *updateWire {
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v (run with -update-wire to record it)", x.name, err)
			continue
		}
		if !bytes.Equal(want, []byte(got)) {
			t.Errorf("%s: wire drifted\n--- want\n%s\n--- got\n%s", x.name, want, got)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !seen[filepath.Join(dir, e.Name())] {
			t.Errorf("stale golden %s: no case records it", e.Name())
		}
	}
}

// sdkBody returns a pointer to the pkg/client type a 2xx JSON answer from
// path decodes into, or, for NDJSON streams, the type of one answer line.
// DELETE /v1/corpora/{name} and POST /v1/tenants answer small maps that
// no SDK type declares.
func sdkBody(method, path string) any {
	path, _, _ = strings.Cut(path, "?")
	switch {
	case strings.HasSuffix(path, "/batch/autofill"):
		return &struct {
			client.RowHead
			client.AutoFillResponse
		}{}
	case strings.HasSuffix(path, "/batch/autocorrect"):
		return &struct {
			client.RowHead
			client.AutoCorrectResponse
		}{}
	case strings.HasSuffix(path, "/batch/autojoin"):
		return &struct {
			client.RowHead
			client.AutoJoinResponse
		}{}
	case strings.HasSuffix(path, "/tables"):
		return &client.IngestLine{}
	case strings.HasSuffix(path, "/lookup"):
		return &client.LookupResponse{}
	case strings.HasSuffix(path, "/autofill"):
		return &client.AutoFillResponse{}
	case strings.HasSuffix(path, "/autocorrect"):
		return &client.AutoCorrectResponse{}
	case strings.HasSuffix(path, "/autojoin"):
		return &client.AutoJoinResponse{}
	case strings.HasSuffix(path, "/healthz"):
		return &client.Health{}
	case strings.HasSuffix(path, "/stats"):
		return &client.Stats{}
	case strings.HasSuffix(path, "/reload"):
		return &client.ReloadResponse{}
	case strings.HasSuffix(path, "/activate"), strings.HasSuffix(path, "/rollback"):
		return &client.VersionSwapResponse{}
	case path == "/v1/corpora":
		return &client.CorpusList{}
	case method == http.MethodPut:
		return &client.PutCorpusResponse{}
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/corpora/"):
		return &client.CorpusInfo{}
	}
	return &map[string]any{}
}

// decodeStrict decodes exactly one JSON value from data into v, refusing
// unknown fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// TestWireDecodesIntoSDKTypes holds the server to pkg/client's schema: every
// live answer of the wire golden decodes, refusing unknown fields, into
// the SDK type that declares it — errors into client.ErrorEnvelope, each
// NDJSON line into its answer, row-error or trailer type. A field the
// server sends and the SDK does not declare fails here.
func TestWireDecodesIntoSDKTypes(t *testing.T) {
	exchanges, _ := runWire(t)
	for _, x := range exchanges {
		body := x.rec.Body.Bytes()
		switch ct := x.rec.Header().Get("Content-Type"); {
		case x.rec.Code >= 400:
			if err := decodeStrict(body, &client.ErrorEnvelope{}); err != nil {
				t.Errorf("%s: error body %s: %v", x.name, body, err)
			}
		case ct == "application/json":
			if err := decodeStrict(body, sdkBody(x.method, x.path)); err != nil {
				t.Errorf("%s: body %s: %v", x.name, body, err)
			}
		case ct == "application/x-ndjson":
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			for i, line := range lines {
				var into any
				switch {
				case i == len(lines)-1 && strings.Contains(x.path, "/tables"):
					into = &client.IngestTrailer{}
				case i == len(lines)-1:
					into = &client.BatchTrailer{}
				case bytes.Contains(line, []byte(`"error":`)):
					into = &struct {
						client.RowHead
						client.ErrorEnvelope
					}{}
				default:
					into = sdkBody(x.method, x.path)
				}
				if err := decodeStrict(line, into); err != nil {
					t.Errorf("%s: line %s: %v", x.name, line, err)
				}
			}
		}
	}
}
