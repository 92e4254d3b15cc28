package snapshot

import "testing"

// Hooks for the external test package (query_test.go), which drives the
// index over corrupt images: internal/index imports this package, so those
// checks cannot live in package snapshot itself.

// GoodImage returns the shared test corpus encoded as a v2 image.
func GoodImage(tb testing.TB) []byte { return v2Bytes(tb) }

// CorruptImage is one corruption-matrix case that gets past the O(1) open.
type CorruptImage struct {
	Name string
	Data []byte
}

// OpenableCorruptions returns every corruption-matrix image that OpenBytes
// accepts, so only Verify or the query path can notice the damage.
func OpenableCorruptions(tb testing.TB) []CorruptImage {
	good := v2Bytes(tb)
	var out []CorruptImage
	for _, c := range v2Corruptions(good) {
		if c.openErr == nil {
			out = append(out, CorruptImage{c.name, c.mutate(append([]byte(nil), good...))})
		}
	}
	return out
}

// BadPostingImage returns a copy of good whose first posting of term names
// a mapping position past the record table.
var BadPostingImage = badPostingImage
