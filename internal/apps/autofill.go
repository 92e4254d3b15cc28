package apps

import (
	"mapsynth/internal/textnorm"
)

// Example is one user-provided (left, right) demonstration for auto-fill.
type Example struct {
	Left, Right string
}

// AutoFillResult reports the outcome of auto-fill on one column.
type AutoFillResult struct {
	// MappingIndex is the position of the mapping used, -1 if none found.
	MappingIndex int
	// Filled maps row index -> suggested right value for rows that could
	// be filled. Rows whose left value the mapping does not know are
	// absent.
	Filled map[int]string
	// Candidates lists the results of the top-K qualifying mappings, best
	// first and including the primary result, when the query asked for
	// TopK > 0; nil otherwise. Candidate entries never nest further.
	Candidates []AutoFillResult
}

// autoFillOne implements the Table-4 scenario: the user has a column of
// left values and demonstrates the intended relationship with a few example
// pairs; the system finds a synthesized mapping that covers the column and
// agrees with every example, then fills the remaining rows.
//
// Candidates is populated only when the query explicitly asked for
// TopK > 0, keeping TopK-less results identical to the historical
// single-result shape.
func autoFillOne(ix lookupIndex, q AutoFillQuery) AutoFillResult {
	k := q.TopK
	if k < 1 {
		k = 1
	}
	cands := autoFillCandidates(ix, q, k)
	if len(cands) == 0 {
		return AutoFillResult{MappingIndex: -1}
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

// autoFillCandidates collects up to k qualifying mappings' fill results in
// index-rank order (most contributing domains first).
func autoFillCandidates(ix lookupIndex, q AutoFillQuery, k int) []AutoFillResult {
	hits := ix.LookupLeft(q.Column, q.MinCoverage)
	var out []AutoFillResult
	for _, hit := range hits {
		if len(out) == k {
			break
		}
		m := hit.Mapping
		// Every example must agree with the mapping.
		ok := true
		for _, ex := range q.Examples {
			got, found := m.Lookup(ex.Left)
			if !found || textnorm.Normalize(got) != textnorm.Normalize(ex.Right) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		res := AutoFillResult{MappingIndex: hit.Index, Filled: make(map[int]string)}
		for i, v := range q.Column {
			if r, found := m.Lookup(v); found {
				res.Filled[i] = r
			}
		}
		out = append(out, res)
	}
	return out
}
