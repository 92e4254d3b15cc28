package snapshot

import (
	"hash/fnv"
	"math"
)

// bloom is a classic Bloom filter over string keys with k FNV-derived hash
// functions, used to build the per-mapping filters of an image's bloom
// section. The zero value is not usable; construct with newBloom.
type bloom struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    int    // elements added
}

// newBloom sizes a filter for the expected number of elements and target
// false-positive probability. It clamps to at least 64 bits and 1 hash.
func newBloom(expected int, fp float64) *bloom {
	if expected < 1 {
		expected = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	mf := -float64(expected) * math.Log(fp) / (math.Ln2 * math.Ln2)
	m := uint64(mf)
	if m < 64 {
		m = 64
	}
	k := int(math.Round(mf / float64(expected) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &bloom{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// hashPair derives two independent 64-bit hashes of s (double hashing
// generates the k positions: h1 + i*h2).
func hashPair(s string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	h1 := h.Sum64()
	h.Write([]byte{0xff})
	h2 := h.Sum64() | 1 // odd, so it cycles all positions
	return h1, h2
}

// Hash is the precomputed double-hash of one key. Callers probing the same
// key against many filters (index.MixedColumnHits checks every candidate's
// right column) hash once and reuse it instead of re-hashing per filter.
type Hash struct{ H1, H2 uint64 }

// HashOf precomputes the double-hash of a key for Handle.MayContainRight.
func HashOf(s string) Hash {
	h1, h2 := hashPair(s)
	return Hash{h1, h2}
}

// add inserts a key.
func (b *bloom) add(s string) {
	h1, h2 := hashPair(s)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.n++
}

// mayContain reports whether the key might be in the set (never false
// negatives; false positives at roughly the configured rate).
func (b *bloom) mayContain(s string) bool {
	return bloomContains(b.bits, b.m, b.k, HashOf(s))
}

// bloomContains probes an m-bit, k-hash filter stored as raw words — how
// filters are served directly out of an image's bloom section, with no
// *bloom object at all. Out-of-range word indexes (corrupt persisted
// parameters) read as definite misses rather than panicking.
func bloomContains(words []uint64, m uint64, k int, h Hash) bool {
	if m == 0 || k < 1 {
		return false
	}
	for i := 0; i < k; i++ {
		pos := (h.H1 + uint64(i)*h.H2) % m
		w := pos / 64
		if w >= uint64(len(words)) || words[w]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
