package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

// v1Fixture is the last file the v1 writer wrote, over testMappings() (see
// internal/snapshot/snapshot_test.go for how it was generated).
const v1Fixture = "../snapshot/testdata/states.v1.snap"

// TestFormatGoldenParity is the v1↔v2 contract: the legacy v1 file and a v2
// file of the mappings it decodes to must answer every application endpoint
// byte-identically. Format is a storage choice, never a semantics choice —
// and never a serving one: both activate as the same v2 image.
func TestFormatGoldenParity(t *testing.T) {
	maps, err := snapshot.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != len(testMappings()) {
		t.Fatalf("fixture holds %d mappings, testMappings() %d", len(maps), len(testMappings()))
	}
	v2Path := filepath.Join(t.TempDir(), "corpus.v2.snap")
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
	s1, s2 := newSrv(v1Fixture), newSrv(v2Path)

	st1, st2 := s1.State(), s2.State()
	if st1.MappedBytes() <= 0 || st1.MappedBytes() != st2.MappedBytes() || st1.imageCRC() != st2.imageCRC() {
		t.Fatalf("v1-loaded image (%d bytes, crc %08x) differs from the v2 file's (%d bytes, crc %08x)",
			st1.MappedBytes(), st1.imageCRC(), st2.MappedBytes(), st2.imageCRC())
	}
	if st1.NumMappings() != len(maps) || st2.NumMappings() != len(maps) {
		t.Fatalf("state mappings = %d / %d, want %d", st1.NumMappings(), st2.NumMappings(), len(maps))
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
	// nondeterministic even between two identical servers.
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

	// The metadata surfaces agree too: whatever was on disk, the state is
	// a CRC-identified v2 image.
	for name, h := range map[string]http.Handler{"v1": h1, "v2": h2} {
		_, info := do(h, "GET", "/v1/corpora/default", "")
		var ci struct {
			Format      string `json:"format"`
			MappedBytes int64  `json:"mapped_bytes"`
			Mappings    int    `json:"mappings"`
			SnapshotCRC string `json:"snapshot_crc"`
		}
		if err := json.Unmarshal(info, &ci); err != nil {
			t.Fatalf("corpora metadata: %v", err)
		}
		if ci.Format != "v2" || ci.MappedBytes <= 0 || ci.Mappings != len(maps) || ci.SnapshotCRC == "" {
			t.Fatalf("%s file: corpora metadata = %+v, want a CRC-identified v2 image", name, ci)
		}
	}

	// The other two ways in: PUT naming the v1 file, PUT uploading its bytes.
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if c, b := do(h2, "PUT", "/v1/corpora/bypath", `{"snapshot":"`+v1Fixture+`"}`); c != http.StatusCreated {
		t.Fatalf("PUT path of a v1 file = %d %s", c, b)
	}
	up := httptest.NewRequest("PUT", "/v1/corpora/byupload", bytes.NewReader(raw))
	up.Header.Set("Content-Type", "application/octet-stream")
	w := httptest.NewRecorder()
	h2.ServeHTTP(w, up)
	if w.Code != http.StatusCreated {
		t.Fatalf("PUT upload of v1 bytes = %d %s", w.Code, w.Body)
	}
	for _, name := range []string{"bypath", "byupload"} {
		if st := s2.CorpusState(name); st == nil || st.imageCRC() != st2.imageCRC() {
			t.Fatalf("corpus %s did not activate as the same image", name)
		}
		_, want := do(h2, "GET", "/v1/lookup?key=Seattle", "")
		_, got := do(h2, "GET", "/v1/corpora/"+name+"/lookup?key=Seattle", "")
		var wl, gl client.LookupResponse
		if json.Unmarshal(want, &wl) != nil || json.Unmarshal(got, &gl) != nil || !gl.Found || gl.Value != wl.Value {
			t.Fatalf("corpus %s lookup = %s, want %s", name, got, want)
		}
	}
}

// TestV2UploadAndReload exercises the non-constructor activation paths: an
// upload of raw v2 bytes and a path reload.
func TestV2UploadAndReload(t *testing.T) {
	maps := testMappings()
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, maps); err != nil {
		t.Fatal(err)
	}
	s := NewFromMappings(maps, Options{})
	if st, err := s.LoadCorpusSnapshot("up", buf.Bytes()); err != nil {
		t.Fatal(err)
	} else if st.imageCRC() != s.State().imageCRC() {
		t.Fatalf("uploaded image crc %08x, NewFromMappings image of the same mappings %08x", st.imageCRC(), s.State().imageCRC())
	}
	for _, key := range []string{"California", "key-3-1"} {
		want := s.Lookup(key)
		r := httptest.NewRequest("GET", "/v1/corpora/up/lookup?key="+key, nil)
		r.URL.RawQuery = "key=" + key
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		var got client.LookupResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || got.Value != want.Value {
			t.Fatalf("lookup %q: uploaded corpus answered %+v, default corpus %+v", key, got, want)
		}
	}

	path := filepath.Join(t.TempDir(), "c.snap")
	if err := snapshot.WriteFileV2(path, maps); err != nil {
		t.Fatal(err)
	}
	st, err := s.LoadCorpusContext(context.Background(), DefaultCorpus, path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.handle.Mapped() || st.NumMappings() != len(maps) {
		t.Fatalf("reloaded state mapped=%v mappings=%d", st.handle.Mapped(), st.NumMappings())
	}
	if got := s.Lookup("California"); !got.Found || got.Value != "CA" {
		t.Fatalf("lookup after v2 reload = %+v", got)
	}
	if _, err := s.LoadCorpusContext(context.Background(), DefaultCorpus, ""); err != nil {
		t.Fatalf("path-less reload of a v2 corpus: %v", err)
	}
}
