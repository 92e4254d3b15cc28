package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"

	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
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
	var info corpusInfo
	getJSON(t, h, "/v1/corpora/up", &info)
	if info.Version != 1 {
		t.Fatalf("version after rejected upload = %d, want 1", info.Version)
	}
	var lr lookupResponse
	getJSON(t, h, "/v1/corpora/up/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "OK-Ca" {
		t.Fatalf("lookup after rejected upload = %+v, want the old state's OK-Ca", lr)
	}
}

// TestEveryStateIsADeltaBase: states installed from mappings in hand —
// NewFromMappings, then two rebuild reloads — are v2 images like any other:
// CRC-identified on the metadata surfaces and usable as the base of a delta
// snapshot GET once a newer version is live.
func TestEveryStateIsADeltaBase(t *testing.T) {
	// Each install adds one mapping to the previous set, so a delta is a
	// handful of copy ops and one literal against a multi-page full image.
	sets := [][]*mapping.Mapping{testMappings()}
	for i := 1; i <= 2; i++ {
		extra := codedMappings(fmt.Sprintf("X%d", i))[0]
		extra.ID = 100 + i
		sets = append(sets, append(append([]*mapping.Mapping(nil), sets[i-1]...), extra))
	}
	rebuilds := 0
	srv := NewFromMappings(sets[0], Options{
		Rebuild: func(context.Context) ([]*mapping.Mapping, error) {
			rebuilds++
			return sets[rebuilds], nil
		},
	})
	h := srv.Handler()

	var prevCRC string
	var prevFull []byte
	for i := range sets {
		if i > 0 {
			if rec := postJSON(t, h, "/v1/reload", map[string]any{"rebuild": true}, nil); rec.Code != http.StatusOK {
				t.Fatalf("rebuild %d = %d: %s", i, rec.Code, rec.Body)
			}
		}
		var info corpusInfo
		getJSON(t, h, "/v1/corpora/default", &info)
		if info.Format != "v2" || info.SnapshotCRC == "" || info.SnapshotCRC == prevCRC || info.Mappings != len(sets[i]) {
			t.Fatalf("install %d: info = %+v, want a fresh CRC-identified v2 image of %d mappings", i, info, len(sets[i]))
		}
		_, full := getSnapshot(t, h, "/v1/corpora/default/snapshot")
		full = append([]byte(nil), full...)

		if i > 0 {
			rec, body := getSnapshot(t, h, "/v1/corpora/default/snapshot?since_crc="+prevCRC)
			if got := rec.Header().Get("X-Delta-Base-CRC"); got != prevCRC || !snapshot.IsDelta(body) {
				t.Fatalf("install %d: since_crc=%s answered X-Delta-Base-CRC %q, delta=%v (%d bytes)",
					i, prevCRC, got, snapshot.IsDelta(body), len(body))
			}
			d, err := snapshot.OpenDelta(body)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := d.Apply(prevFull)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rebuilt, full) {
				t.Fatalf("install %d: delta over the previous image does not reproduce the live one", i)
			}
		}
		prevCRC, prevFull = info.SnapshotCRC, full
	}
}
