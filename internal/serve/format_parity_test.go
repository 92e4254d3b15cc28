package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mapsynth/internal/snapshot"
)

// TestFormatGoldenParity is the v1↔v2 contract: the same mapping set served
// from a decoded v1 snapshot and from a mapped v2 snapshot must answer every
// application endpoint byte-identically. Format is a storage choice, never a
// semantics choice.
func TestFormatGoldenParity(t *testing.T) {
	maps := testMappings()
	dir := t.TempDir()
	v1Path := filepath.Join(dir, "corpus.v1.snap")
	v2Path := filepath.Join(dir, "corpus.v2.snap")
	if err := snapshot.WriteFile(v1Path, maps); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileV2(v2Path, maps); err != nil {
		t.Fatal(err)
	}

	newSrv := func(path string) *Server {
		s, err := New(Options{SnapshotPath: path, CacheSize: 16})
		if err != nil {
			t.Fatalf("New(%s): %v", path, err)
		}
		return s
	}
	s1, s2 := newSrv(v1Path), newSrv(v2Path)

	if got := s1.State().Format; got != 1 {
		t.Fatalf("v1 state format = %d, want 1", got)
	}
	st2 := s2.State()
	if st2.Format != 2 {
		t.Fatalf("v2 state format = %d, want 2", st2.Format)
	}
	if st2.MappedBytes <= 0 {
		t.Fatalf("v2 state MappedBytes = %d, want > 0", st2.MappedBytes)
	}
	if st2.NumMappings() != len(maps) {
		t.Fatalf("v2 state mappings = %d, want %d", st2.NumMappings(), len(maps))
	}

	h1, h2 := s1.Handler(), s2.Handler()
	do := func(h http.Handler, method, path, body string) (int, []byte) {
		var r *http.Request
		if body == "" {
			r = httptest.NewRequest(method, path, nil)
		} else {
			r = httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
			r.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		b, _ := io.ReadAll(w.Result().Body)
		return w.Code, b
	}

	type req struct{ method, path, body string }
	reqs := []req{
		{"GET", "/v1/lookup?key=California", ""},
		{"GET", "/v1/lookup?key=Seattle", ""},
		{"GET", "/v1/lookup?key=key-5-3", ""},
		{"GET", "/v1/lookup?key=not-there", ""},
		{"POST", "/v1/autofill", `{"column":["California","Washington","Oregon","Texas"],"examples":[{"left":"California","right":"CA"}]}`},
		{"POST", "/v1/autofill", `{"column":["San Francisco","Seattle","Portland"],"min_coverage":0.5,"top_k":3}`},
		{"POST", "/v1/autocorrect", `{"column":["California","WA","OR","Texas","Nevada"],"min_each":1,"min_coverage":0.5,"top_k":2}`},
		{"POST", "/v1/autojoin", `{"keys_a":["California","Washington","Oregon"],"keys_b":["CA","WA","OR"],"min_coverage":0.5}`},
		{"POST", "/v1/autojoin", `{"keys_a":["San Francisco","Seattle"],"keys_b":["California","Washington"],"min_coverage":0.5,"top_k":2}`},
	}
	// Batch endpoints are deliberately absent: rows stream in completion
	// order and the trailer carries a per-request ID, so their bytes are
	// nondeterministic even between two identical heap servers.
	for _, rq := range reqs {
		c1, b1 := do(h1, rq.method, rq.path, rq.body)
		c2, b2 := do(h2, rq.method, rq.path, rq.body)
		if c1 != c2 {
			t.Errorf("%s %s: status %d (v1) != %d (v2)", rq.method, rq.path, c1, c2)
			continue
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s %s:\n v1: %s\n v2: %s", rq.method, rq.path, b1, b2)
		}
	}

	// The metadata surfaces must disagree exactly where the formats differ.
	_, info := do(h2, "GET", "/v1/corpora/default", "")
	var ci struct {
		Format      string `json:"format"`
		MappedBytes int64  `json:"mapped_bytes"`
		Mappings    int    `json:"mappings"`
	}
	if err := json.Unmarshal(info, &ci); err != nil {
		t.Fatalf("corpora metadata: %v", err)
	}
	if ci.Format != "v2" || ci.MappedBytes <= 0 || ci.Mappings != len(maps) {
		t.Fatalf("v2 corpora metadata = %+v, want format v2 with mapped bytes", ci)
	}
}

// TestV2UploadAndReload exercises the non-file v2 activation paths: a PUT
// upload of raw v2 bytes and a path reload, both of which must produce a
// mapped (format 2) state.
func TestV2UploadAndReload(t *testing.T) {
	maps := testMappings()
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, maps); err != nil {
		t.Fatal(err)
	}
	s := NewFromMappings(maps, Options{})
	if st, err := s.LoadCorpusSnapshot("up", buf.Bytes()); err != nil {
		t.Fatal(err)
	} else if st.Format != 2 {
		t.Fatalf("uploaded state format = %d, want 2", st.Format)
	}
	for _, key := range []string{"California", "key-3-1"} {
		want := s.Lookup(key)
		r := httptest.NewRequest("GET", "/v1/corpora/up/lookup?key="+key, nil)
		r.URL.RawQuery = "key=" + key
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		var got lookupResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || got.Value != want.Value {
			t.Fatalf("lookup %q: uploaded v2 corpus answered %+v, default heap corpus %+v", key, got, want)
		}
	}

	path := filepath.Join(t.TempDir(), "c.snap")
	if err := snapshot.WriteFileV2(path, maps); err != nil {
		t.Fatal(err)
	}
	st, err := s.Reload(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != 2 || st.NumMappings() != len(maps) {
		t.Fatalf("reloaded state format=%d mappings=%d", st.Format, st.NumMappings())
	}
	if got := s.Lookup("California"); !got.Found || got.Value != "CA" {
		t.Fatalf("lookup after v2 reload = %+v", got)
	}
	if _, err := s.Reload(""); err != nil {
		t.Fatalf("path-less reload of a v2 corpus: %v", err)
	}
}
