package apps

import "mapsynth/internal/index"

// Index is the containment-lookup surface the applications need: an
// *index.MappingIndex, or a wrapper such as CachedIndex that answers with
// the same globally ordered hit list.
type Index interface {
	// LookupLeft finds mappings whose left column covers at least
	// minCoverage of the query values, best first.
	LookupLeft(values []string, minCoverage float64) []index.Hit
	// MixedColumnHits finds mappings where the query values split between
	// the left and right columns, best first.
	MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit
}

var _ Index = (*index.MappingIndex)(nil)
