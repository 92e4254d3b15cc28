package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"strings"
	"testing"

	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// TestCorruptUploadRejected: an uploaded image crossed a network, so it is
// fully verified before it can go live. One flipped byte inside the
// postings section leaves the header and section table intact — the O(1)
// open accepts it — and must still answer 422 and leave the corpus on the
// version it was serving.
func TestCorruptUploadRejected(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()

	var good bytes.Buffer
	if err := snapshot.WriteV2(&good, codedMappings("OK")); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, http.MethodPut, "/v1/corpora/up", good.Bytes(), "application/octet-stream"); rec.Code != http.StatusCreated {
		t.Fatalf("clean upload = %d: %s", rec.Code, rec.Body)
	}

	var next bytes.Buffer
	if err := snapshot.WriteV2(&next, codedMappings("BAD")); err != nil {
		t.Fatal(err)
	}
	bad := next.Bytes()
	img, err := snapshot.OpenBytes(bad)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, sec := range img.Sections() {
		if sec.Name == "postings" && sec.Length > 0 {
			bad[sec.Offset+sec.Length/2] ^= 0x01
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("image has no postings to corrupt")
	}
	if _, err := snapshot.OpenBytes(bad); err != nil {
		t.Fatalf("the flip must get past the O(1) open to prove anything: %v", err)
	}

	rec := do(t, h, http.MethodPut, "/v1/corpora/up", bad, "application/octet-stream")
	if rec.Code != http.StatusUnprocessableEntity || !bytes.Contains(rec.Body.Bytes(), []byte("corpus load failed")) {
		t.Fatalf("corrupt upload = %d: %s, want 422 corpus load failed", rec.Code, rec.Body)
	}
	var info client.CorpusInfo
	getJSON(t, h, "/v1/corpora/up", &info)
	if info.Version != 1 {
		t.Fatalf("version after rejected upload = %d, want 1", info.Version)
	}
	var lr client.LookupResponse
	getJSON(t, h, "/v1/corpora/up/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "OK-Ca" {
		t.Fatalf("lookup after rejected upload = %+v, want the old state's OK-Ca", lr)
	}
}

// TestEveryStateShipsItsImage: states installed from mappings in hand —
// NewFromMappings, a rebuild reload, then an ingest publish — are v2
// images like any other. Each install is CRC-identified afresh on the
// metadata surface, its snapshot GET streams exactly the bytes WriteV2
// writes for its mappings, and the reported snapshot_crc is those bytes'
// footer.
func TestEveryStateShipsItsImage(t *testing.T) {
	base, held := ingestCorpus(t, 1)
	srv := NewFromMappings(testMappings(), Options{IngestDir: t.TempDir(), Tables: base})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	var first bytes.Buffer
	if err := snapshot.WriteV2(&first, testMappings()); err != nil {
		t.Fatal(err)
	}
	installs := []struct {
		install func()
		want    []byte
	}{
		{func() {}, first.Bytes()},
		{func() {
			if rec := postJSON(t, h, "/v1/reload", map[string]any{"rebuild": true}, nil); rec.Code != http.StatusOK {
				t.Fatalf("rebuild = %d: %s", rec.Code, rec.Body)
			}
		}, synthesizedImage(t, srv, base)},
		{func() {
			if _, tr := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held...)); tr.Synthesis != "applied" {
				t.Fatalf("synthesis = %q (%s), want applied", tr.Synthesis, tr.SynthesisError)
			}
		}, synthesizedImage(t, srv, append(append([]*table.Table(nil), base...), asIngested(len(base), held...)...))},
	}

	var prevCRC string
	for i, in := range installs {
		in.install()
		want, err := snapshot.OpenBytes(in.want)
		if err != nil {
			t.Fatal(err)
		}
		var info client.CorpusInfo
		getJSON(t, h, "/v1/corpora/default", &info)
		if info.Format != "v2" || info.SnapshotCRC == "" || info.SnapshotCRC == prevCRC || info.Mappings != want.Len() {
			t.Fatalf("install %d: info = %+v, want a fresh CRC-identified v2 image of %d mappings", i, info, want.Len())
		}
		_, got := getSnapshot(t, h, "/v1/corpora/default/snapshot")
		if !bytes.Equal(got, in.want) {
			t.Fatalf("install %d: snapshot GET (%d bytes) differs from WriteV2 of its mappings (%d bytes)", i, len(got), len(in.want))
		}
		if footer := fmt.Sprintf("%08x", binary.LittleEndian.Uint32(got[len(got)-4:])); info.SnapshotCRC != footer {
			t.Fatalf("install %d: snapshot_crc %s, image footer %s", i, info.SnapshotCRC, footer)
		}
		prevCRC = info.SnapshotCRC
	}
}

// TestSnapshotDelta: a snapshot GET that asks for a delta, the way older
// replicas did — by the CRC of the previous image or by version 1 — gets
// the live image's exact bytes and exactly the headers of a plain GET.
// Replicas always ship full images; the query string is ignored.
func TestSnapshotDelta(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()
	var first client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &first)
	var next bytes.Buffer
	if err := snapshot.WriteV2(&next, append(testMappings(), codedMappings("NEW")...)); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, http.MethodPut, "/v1/corpora/default", next.Bytes(), "application/octet-stream"); rec.Code != http.StatusOK {
		t.Fatalf("upload = %d: %s", rec.Code, rec.Body)
	}
	plain, _ := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	for _, q := range []string{"since_crc=" + first.SnapshotCRC, "since=1"} {
		rec, body := getSnapshot(t, h, "/v1/corpora/default/snapshot?"+q)
		if !bytes.Equal(body, next.Bytes()) {
			t.Errorf("%s: answered %d bytes, want the live %d-byte image", q, len(body), next.Len())
		}
		for k := range rec.Header() {
			if _, ok := plain.Header()[k]; !ok {
				t.Errorf("%s: response carries %s, which a plain GET does not", q, k)
			}
		}
	}
}

// TestDeltaUpload: a version-3 body — the byte the retired delta format
// used — with a valid CRC footer is refused with 422 naming the version, and
// the corpus keeps serving the image it had.
func TestDeltaUpload(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()
	var before client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &before)

	body := append(append([]byte(nil), snapshot.Magic[:]...), 3)
	body = append(body, "any payload"...)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	rec := do(t, h, http.MethodPut, "/v1/corpora/default", body, "application/octet-stream")
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("version-3 upload = %d: %s", rec.Code, rec.Body)
	}
	if rec.Code != http.StatusUnprocessableEntity || env.Error.Code != string(client.CodeUnprocessable) ||
		!strings.Contains(env.Error.Message, "unsupported format version: 3") {
		t.Fatalf("version-3 upload = %d %+v, want 422 unprocessable naming version 3", rec.Code, env.Error)
	}
	var after client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &after)
	if after.Version != before.Version || after.SnapshotCRC != before.SnapshotCRC {
		t.Fatalf("after refused upload: version %d crc %s, want %d %s",
			after.Version, after.SnapshotCRC, before.Version, before.SnapshotCRC)
	}
}
