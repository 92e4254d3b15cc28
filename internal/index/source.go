package index

import "mapsynth/internal/mapping"

// Source is the storage backend of a MappingIndex: everything a containment
// query needs to find, verify and rank mappings. Its one production
// implementation is snapshot.Handle, a v2 snapshot image (mmapped file or
// in process memory) whose postings, right-column Bloom bits and value
// tables are read in place and whose Mapping(i) materializes lazily on first
// hit. The interface exists because internal/snapshot imports this package
// (Bloom, Hash), not the other way round.
type Source interface {
	// Len returns the number of mappings.
	Len() int
	// Mapping returns the i-th mapping, materialized on first access; it is
	// only called for mappings that actually hit.
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
