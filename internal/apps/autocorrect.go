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
func autoCorrectOne(ix lookupIndex, q AutoCorrectQuery) AutoCorrectResult {
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
	// The column is normalized once for every hit.
	normed := make([]string, len(q.Column))
	for i, v := range q.Column {
		normed[i] = textnorm.Normalize(v)
	}
	cands := make([]AutoCorrectResult, len(hits))
	for i, hit := range hits {
		cands[i] = autoCorrectForHit(hit, q.Column, normed)
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

// autoCorrectForHit computes the corrections one mapping suggests for the
// column, whose normalized values are normed. A minority cell is replaced
// by the other side of the first pair, in Pairs order, that holds it.
func autoCorrectForHit(hit index.Hit, column, normed []string) AutoCorrectResult {
	m := hit.Mapping
	// Classify every cell: left-side, right-side, or unknown.
	const (
		unknown = iota
		left
		right
	)
	sides := make([]int8, len(column))
	leftCount, rightCount := 0, 0
	for i, nv := range normed {
		_, isL := m.FirstWithLeft(nv)
		_, isR := m.FirstWithRight(nv)
		switch {
		case isL: // ambiguous values follow the left column
			sides[i] = left
			leftCount++
		case isR:
			sides[i] = right
			rightCount++
		}
	}
	res := AutoCorrectResult{MappingIndex: hit.Index}
	// The majority side is canonical; minority cells get translated.
	majorityLeft := leftCount >= rightCount
	for i, side := range sides {
		var repl string
		switch {
		case majorityLeft && side == right:
			p, _ := m.FirstWithRight(normed[i])
			repl = p.L
		case !majorityLeft && side == left:
			p, _ := m.FirstWithLeft(normed[i])
			repl = p.R
		default:
			continue
		}
		res.Corrections = append(res.Corrections, Correction{Row: i, Original: column[i], Suggested: repl})
	}
	return res
}
