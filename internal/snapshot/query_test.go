package snapshot_test

import (
	"testing"

	"mapsynth/internal/index"
	"mapsynth/internal/snapshot"
)

// The index's side of the corruption contract: a corrupt image that gets
// past the O(1) open must answer containment queries degraded, never
// panicking or over-reading, and a posting past the record table must be
// skipped rather than indexed with.

// queryIndexNoPanic runs both index query kinds over a (possibly corrupt)
// open handle; the only acceptable failure mode is empty answers.
func queryIndexNoPanic(t *testing.T, h *snapshot.Handle) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("querying a corrupt image panicked: %v", r)
		}
	}()
	ix := index.FromSource(h)
	ix.LookupLeft([]string{"california", "texas"}, 0.5)
	ix.MixedColumnHits([]string{"california", "ca"}, 1, 0.5)
}

func TestIndexOverCorruptImages(t *testing.T) {
	cases := snapshot.OpenableCorruptions(t)
	cases = append(cases, snapshot.CorruptImage{
		Name: "posting out of range",
		Data: snapshot.BadPostingImage(t, snapshot.GoodImage(t), "california"),
	})
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			h, err := snapshot.OpenBytes(c.Data)
			if err != nil {
				t.Fatalf("OpenBytes: %v (corruption should get past the O(1) open)", err)
			}
			queryIndexNoPanic(t, h)
		})
	}
}

// TestIndexSkipsOutOfRangePosting: the patched posting drops exactly one
// hit, and no hit names a position outside the image.
func TestIndexSkipsOutOfRangePosting(t *testing.T) {
	good := snapshot.GoodImage(t)
	h, err := snapshot.OpenBytes(snapshot.BadPostingImage(t, good, "california"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := snapshot.OpenBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	want := index.FromSource(ref).LookupLeft([]string{"California"}, 1)
	got := index.FromSource(h).LookupLeft([]string{"California"}, 1)
	if len(want) == 0 || len(got) != len(want)-1 {
		t.Fatalf("bad posting: %d hits, want the clean image's %d minus the patched one", len(got), len(want))
	}
	for _, hit := range got {
		if hit.Index < 0 || hit.Index >= h.Len() {
			t.Fatalf("hit at position %d of %d", hit.Index, h.Len())
		}
	}
}

func FuzzOpenV2(f *testing.F) {
	good := snapshot.GoodImage(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("MSNP\x02garbage"))
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	f.Add(snapshot.BadPostingImage(f, good, "california"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := snapshot.OpenBytes(data)
		if err != nil {
			return
		}
		_ = h.Verify()
		hash := snapshot.HashOf("ca")
		n := h.Len()
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			h.MayContainRight(i, hash)
			h.InLeft(i, "ca")
			h.Mapping(i)
		}
		h.Postings("california")
		ix := index.FromSource(h)
		ix.LookupLeft([]string{"california"}, 0.5)
		ix.LookupLeft([]string{"california", "texas"}, 0.5)
		ix.MixedColumnHits([]string{"california", "ca"}, 1, 0.5)
	})
}
