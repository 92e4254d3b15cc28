// Package apps implements the three motivating applications of mapping
// tables from Section 1 of the paper: auto-correction (Table 3), auto-fill
// (Table 4) and auto-join (Table 5). All three reduce to containment lookups
// against the synthesized mapping index — exactly the "simple to implement
// and easy to scale" plug-in usage the paper advocates for pre-computed
// mappings.
//
// Session is the entry point: it unifies the single and batch call paths
// behind context-aware, query-struct methods.
package apps

import (
	"sort"

	"mapsynth/internal/index"
	"mapsynth/internal/textnorm"
)

// Correction is one suggested fix for an inconsistent cell.
type Correction struct {
	// Row is the index of the offending value in the input column.
	Row int
	// Original is the cell's current value.
	Original string
	// Suggested is the replacement consistent with the column majority.
	Suggested string
}

// AutoCorrectResult reports the outcome of auto-correction on one column.
type AutoCorrectResult struct {
	// MappingIndex is the position of the mapping used, -1 if none found.
	MappingIndex int
	// Corrections lists suggested fixes, ordered by row.
	Corrections []Correction
	// Candidates lists the results of the top-K qualifying mappings, best
	// first and including the primary result, when the query asked for
	// TopK > 0; nil otherwise. Candidate entries never nest further.
	Candidates []AutoCorrectResult
}

// autoCorrectOne detects a column whose values mix the two sides of a known
// mapping (e.g. full state names and state abbreviations) and suggests
// rewriting the minority side into the majority side using the mapping.
//
// Candidates is populated only when the query explicitly asked for
// TopK > 0.
func autoCorrectOne(ix Index, q AutoCorrectQuery) AutoCorrectResult {
	k := q.TopK
	if k < 1 {
		k = 1
	}
	hits := ix.MixedColumnHits(q.Column, q.MinEach, q.MinCoverage)
	if len(hits) == 0 {
		return AutoCorrectResult{MappingIndex: -1}
	}
	if len(hits) > k {
		hits = hits[:k]
	}
	cands := make([]AutoCorrectResult, len(hits))
	for i, hit := range hits {
		cands[i] = autoCorrectForHit(hit, q.Column)
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

// autoCorrectForHit computes the corrections one mapping suggests for the
// column.
func autoCorrectForHit(hit index.Hit, column []string) AutoCorrectResult {
	m := hit.Mapping
	// Classify every cell: left-side, right-side, or unknown.
	leftOf := make(map[string]string)  // normalized right -> left surface
	rightOf := make(map[string]string) // normalized left -> right surface
	leftSurface := make(map[string]string)
	rightSurface := make(map[string]string)
	for _, p := range m.Pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		if _, dup := leftOf[nr]; !dup {
			leftOf[nr] = p.L
		}
		if _, dup := rightOf[nl]; !dup {
			rightOf[nl] = p.R
		}
		if _, dup := leftSurface[nl]; !dup {
			leftSurface[nl] = p.L
		}
		if _, dup := rightSurface[nr]; !dup {
			rightSurface[nr] = p.R
		}
	}
	type cellSide struct {
		row  int
		side int // 0 unknown, 1 left, 2 right
	}
	sides := make([]cellSide, len(column))
	leftCount, rightCount := 0, 0
	for i, v := range column {
		nv := textnorm.Normalize(v)
		_, isL := leftSurface[nv]
		_, isR := rightSurface[nv]
		s := cellSide{row: i}
		switch {
		case isL && !isR:
			s.side = 1
			leftCount++
		case isR && !isL:
			s.side = 2
			rightCount++
		case isL && isR:
			s.side = 1 // ambiguous values follow the left column
			leftCount++
		}
		sides[i] = s
	}
	res := AutoCorrectResult{MappingIndex: hit.Index}
	// The majority side is canonical; minority cells get translated.
	majorityLeft := leftCount >= rightCount
	for _, s := range sides {
		nv := textnorm.Normalize(column[s.row])
		switch {
		case majorityLeft && s.side == 2:
			if repl, ok := leftOf[nv]; ok {
				res.Corrections = append(res.Corrections, Correction{
					Row: s.row, Original: column[s.row], Suggested: repl,
				})
			}
		case !majorityLeft && s.side == 1:
			if repl, ok := rightOf[nv]; ok {
				res.Corrections = append(res.Corrections, Correction{
					Row: s.row, Original: column[s.row], Suggested: repl,
				})
			}
		}
	}
	sort.Slice(res.Corrections, func(i, j int) bool {
		return res.Corrections[i].Row < res.Corrections[j].Row
	})
	return res
}
