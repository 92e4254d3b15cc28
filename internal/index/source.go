package index

import (
	"sort"

	"mapsynth/internal/mapping"
)

// Source is the storage backend of a MappingIndex: everything a containment
// query needs to find, verify and rank mappings, decoupled from where the
// data lives. Two implementations exist — the heap source built by Build
// from synthesis output or a decoded v1 snapshot, and the mmap source in
// internal/snapshot serving a v2 snapshot region zero-copy, where the
// postings, right-column Bloom bits and value tables are read in place and
// Mapping(i) materializes lazily on first hit.
type Source interface {
	// Len returns the number of mappings.
	Len() int
	// Mapping returns the i-th mapping. Mmap-backed sources materialize it
	// on first access; it is only called for mappings that actually hit.
	Mapping(i int) *mapping.Mapping
	// MayContainRight probes mapping i's right-column Bloom filter with a
	// precomputed hash (never false negatives).
	MayContainRight(i int, h Hash) bool
	// Postings returns the ascending positions of the mappings whose left
	// column contains the normalized value. The slice is read-only, and a
	// source serving an unverified file may return positions outside
	// [0, Len()); MappingIndex skips those.
	Postings(nl string) []int32
	// InLeft reports exactly whether mapping i's left column contains the
	// normalized value.
	InLeft(i int, nl string) bool
	// InRight reports exactly whether mapping i's right column contains
	// the normalized value.
	InRight(i int, nl string) bool
}

// heapSource is the in-memory Source over fully materialized mappings: per
// mapping a right-column Bloom filter and sorted normalized value tables,
// plus the exact inverted index over left values.
type heapSource struct {
	maps    []*mapping.Mapping
	rightBF []*Bloom
	// sortedLeft/sortedRight hold each mapping's distinct normalized
	// values ascending, for exact membership by binary search.
	sortedLeft, sortedRight [][]string
	// inverted: normalized left value -> ascending mapping positions.
	inverted map[string][]int32
}

var _ Source = (*heapSource)(nil)

// newHeapSource indexes the mappings. The slice is retained; mappings must
// not be mutated afterwards.
func newHeapSource(maps []*mapping.Mapping) *heapSource {
	s := &heapSource{
		maps:        maps,
		rightBF:     make([]*Bloom, len(maps)),
		sortedLeft:  make([][]string, len(maps)),
		sortedRight: make([][]string, len(maps)),
		inverted:    make(map[string][]int32),
	}
	for i, m := range maps {
		left, right := m.NormalizedValues()
		for _, nl := range left {
			s.inverted[nl] = append(s.inverted[nl], int32(i))
		}
		rb := NewBloom(len(m.Pairs), 0.01)
		for _, nr := range right {
			rb.Add(nr)
		}
		s.rightBF[i] = rb
		s.sortedLeft[i], s.sortedRight[i] = left, right
	}
	return s
}

func (s *heapSource) Len() int                       { return len(s.maps) }
func (s *heapSource) Mapping(i int) *mapping.Mapping { return s.maps[i] }
func (s *heapSource) MayContainRight(i int, h Hash) bool {
	return s.rightBF[i].MayContainHash(h)
}
func (s *heapSource) Postings(nl string) []int32 { return s.inverted[nl] }

func (s *heapSource) InLeft(i int, nl string) bool  { return containsString(s.sortedLeft[i], nl) }
func (s *heapSource) InRight(i int, nl string) bool { return containsString(s.sortedRight[i], nl) }

func containsString(sorted []string, v string) bool {
	j := sort.SearchStrings(sorted, v)
	return j < len(sorted) && sorted[j] == v
}
