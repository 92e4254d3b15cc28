package apps

import (
	"sort"

	"mapsynth/internal/index"
	"mapsynth/internal/textnorm"
)

// JoinRow is one joined output row: the row indexes of the two input tables
// that were bridged by the mapping.
type JoinRow struct {
	LeftRow, RightRow int
}

// AutoJoinResult reports the outcome of auto-join between two key columns.
type AutoJoinResult struct {
	// MappingIndex is the position of the bridging mapping, -1 if none.
	MappingIndex int
	// Rows lists the joined row pairs, ordered by (LeftRow, RightRow).
	Rows []JoinRow
	// Bridged is the number of left rows that found a join partner.
	Bridged int
	// Candidates lists the results of the top-K bridging mappings, most
	// bridged rows first and including the primary result, when the query
	// asked for TopK > 0; nil otherwise. Candidate entries never nest
	// further.
	Candidates []AutoJoinResult
}

// autoJoinOne implements the Table-5 scenario: table A's key column and
// table B's key column use different representations (stock tickers vs
// company names); a synthesized mapping whose left column covers A's keys
// and whose right column covers B's keys acts as the bridge of a three-way
// join. The mapping is chosen to maximize the number of bridged rows.
//
// Candidates is populated only when the query explicitly asked for
// TopK > 0. Mappings that bridge zero rows never qualify, matching the
// historical "best bridged > 0" selection.
func autoJoinOne(ix lookupIndex, q AutoJoinQuery) AutoJoinResult {
	k := q.TopK
	if k < 1 {
		k = 1
	}
	hits := ix.LookupLeft(q.KeysA, q.MinCoverage)
	if len(hits) == 0 {
		return AutoJoinResult{MappingIndex: -1}
	}
	// Index B's keys by normalized value.
	bRows := make(map[string][]int, len(q.KeysB))
	for i, v := range q.KeysB {
		nv := textnorm.Normalize(v)
		if nv == "" {
			continue
		}
		bRows[nv] = append(bRows[nv], i)
	}
	// A's keys are normalized once for every hit.
	normA := make([]string, len(q.KeysA))
	for i, v := range q.KeysA {
		normA[i] = textnorm.Normalize(v)
	}
	var cands []AutoJoinResult
	for _, hit := range hits {
		res := autoJoinForHit(hit, normA, bRows)
		if res.Bridged == 0 {
			continue
		}
		cands = append(cands, res)
	}
	if len(cands) == 0 {
		return AutoJoinResult{MappingIndex: -1}
	}
	// Most bridged rows win; the stable sort keeps index-rank order (most
	// contributing domains) as the tie-break, so cands[0] is exactly the
	// mapping the historical single-result selection chose.
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].Bridged > cands[j].Bridged
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	for c := range cands {
		rows := cands[c].Rows
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].LeftRow != rows[j].LeftRow {
				return rows[i].LeftRow < rows[j].LeftRow
			}
			return rows[i].RightRow < rows[j].RightRow
		})
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

// autoJoinForHit joins A's normalized keys against the pre-indexed B rows
// through one mapping; Rows is left in discovery order for the caller to
// sort.
func autoJoinForHit(hit index.Hit, normA []string, bRows map[string][]int) AutoJoinResult {
	m := hit.Mapping
	res := AutoJoinResult{MappingIndex: hit.Index}
	for i, nl := range normA {
		// Try every recorded right: synthesized mappings carry synonymous
		// mentions, and B may use any of them. Distinct rights name
		// disjoint sets of B rows, so no row pair is found twice.
		win, others, ok := m.Rights(nl)
		if !ok {
			continue
		}
		before := len(res.Rows)
		for _, j := range bRows[win] {
			res.Rows = append(res.Rows, JoinRow{LeftRow: i, RightRow: j})
		}
		for _, nr := range others {
			for _, j := range bRows[nr] {
				res.Rows = append(res.Rows, JoinRow{LeftRow: i, RightRow: j})
			}
		}
		if len(res.Rows) > before {
			res.Bridged++
		}
	}
	return res
}
