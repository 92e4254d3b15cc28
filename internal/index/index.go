// Package index provides fast containment lookup over synthesized mapping
// tables. The paper motivates pre-computed mappings partly because they can
// be "indexed ... using hash-based techniques (e.g., bloom filters) for
// efficient lookup based on value containment" (Section 1); this package is
// that index. An exact inverted index over normalized left values names the
// candidate mappings of a query and counts their matches, so a query costs
// the postings it walks rather than a probe of every mapping; a Bloom
// filter per right column screens the exact right-side membership check
// auto-correct runs on those candidates.
package index

import (
	"cmp"
	"slices"

	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/textnorm"
)

// MappingIndex answers "which synthesized mappings contain (many of) these
// values in their left column?" — the lookup primitive behind auto-correct,
// auto-fill and auto-join. The exact inverted index over left values is the
// candidate generator: a query walks the postings of its distinct values and
// counts matches per mapping, so its cost follows the postings it touches,
// not the number of mappings indexed. The postings, value tables and
// mappings live in a v2 snapshot image and are read in place; the index
// itself holds no data.
type MappingIndex struct {
	h *snapshot.Handle
}

// FromSource serves containment queries over the image h: snapshot.Open
// for a file, snapshot.FromMappings for mappings in hand.
func FromSource(h *snapshot.Handle) *MappingIndex {
	return &MappingIndex{h: h}
}

// Len returns the number of indexed mappings.
func (ix *MappingIndex) Len() int { return ix.h.Len() }

// Mapping returns the i-th indexed mapping, materialized on first access.
func (ix *MappingIndex) Mapping(i int) *mapping.Mapping { return ix.h.Mapping(i) }

// Hit is one candidate mapping for a query column.
type Hit struct {
	// Index is the mapping's position in the index.
	Index int
	// Mapping is the matched mapping.
	Mapping *mapping.Mapping
	// Coverage is the fraction of query values found in the mapping's left
	// column.
	Coverage float64
	// Matched is the number of query values found.
	Matched int
}

// normalizeQuery dedups and normalizes the query values, dropping empties.
func normalizeQuery(values []string) []string {
	normed := make([]string, 0, len(values))
	seen := make(map[string]struct{}, len(values))
	for _, v := range values {
		nv := textnorm.Normalize(v)
		if nv == "" {
			continue
		}
		if _, dup := seen[nv]; dup {
			continue
		}
		seen[nv] = struct{}{}
		normed = append(normed, nv)
	}
	return normed
}

// leftMatches walks the postings of every query value and calls visit, in
// ascending mapping position, with each mapping whose left column contains
// at least one of them and how many it contains. Postings of a mapped
// snapshot are not validated at open, so positions outside [0, Len()) are
// skipped here instead of reaching Handle.Mapping or the exact-membership
// accessors.
func (ix *MappingIndex) leftMatches(normed []string, visit func(i, matched int)) {
	var ids []int32
	if len(normed) == 1 {
		ids = ix.h.Postings(normed[0]) // already ascending; only read below
	} else {
		for _, nv := range normed {
			ids = append(ids, ix.h.Postings(nv)...)
		}
		slices.Sort(ids)
	}
	n := ix.h.Len()
	for lo := 0; lo < len(ids); {
		hi := lo + 1
		for hi < len(ids) && ids[hi] == ids[lo] {
			hi++
		}
		if i := int(ids[lo]); i >= 0 && i < n {
			visit(i, hi-lo)
		}
		lo = hi
	}
}

// LookupLeft finds mappings whose left column covers at least minCoverage of
// the query values. Results are sorted by coverage descending, then by more
// contributing domains (popularity), then by index for determinism.
func (ix *MappingIndex) LookupLeft(values []string, minCoverage float64) []Hit {
	normed := normalizeQuery(values)
	if len(normed) == 0 {
		return nil
	}
	var hits []Hit
	ix.leftMatches(normed, func(i, matched int) {
		cov := float64(matched) / float64(len(normed))
		if cov >= minCoverage {
			hits = append(hits, Hit{Index: i, Mapping: ix.h.Mapping(i), Coverage: cov, Matched: matched})
		}
	})
	slices.SortFunc(hits, func(a, b Hit) int {
		if a.Coverage != b.Coverage {
			return cmp.Compare(b.Coverage, a.Coverage)
		}
		if da, db := a.Mapping.NumDomains(), b.Mapping.NumDomains(); da != db {
			return cmp.Compare(db, da)
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return hits
}

// MixedColumnHits finds mappings where the query values are split between
// the left and right columns — the auto-correction signal (Table 3: a state
// column mixing full names and abbreviations). A hit requires at least
// minEach values on each side (never fewer than one) and combined coverage
// of minCoverage; values found on both sides count toward the left.
func (ix *MappingIndex) MixedColumnHits(values []string, minEach int, minCoverage float64) []Hit {
	normed := normalizeQuery(values)
	if len(normed) == 0 {
		return nil
	}
	minEach = max(minEach, 1)
	hashes := make([]snapshot.Hash, len(normed))
	for j, nv := range normed {
		hashes[j] = snapshot.HashOf(nv)
	}
	var hits []Hit
	// A hit has at least one value on the left, so the left postings name
	// every candidate; only those get the right-side check.
	ix.leftMatches(normed, func(i, leftVals int) {
		if leftVals < minEach {
			return
		}
		rightVals := 0
		for j, nv := range normed {
			// Bloom screen then exact check; the filters have no false
			// negatives, so the conjunction equals exact membership.
			if ix.h.MayContainRight(i, hashes[j]) && ix.h.InRight(i, nv) && !ix.h.InLeft(i, nv) {
				rightVals++
			}
		}
		total := leftVals + rightVals
		cov := float64(total) / float64(len(normed))
		if rightVals >= minEach && cov >= minCoverage {
			hits = append(hits, Hit{Index: i, Mapping: ix.h.Mapping(i), Coverage: cov, Matched: total})
		}
	})
	slices.SortFunc(hits, func(a, b Hit) int {
		if a.Coverage != b.Coverage {
			return cmp.Compare(b.Coverage, a.Coverage)
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return hits
}
