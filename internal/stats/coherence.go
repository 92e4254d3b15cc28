package stats

import (
	"math"

	"mapsynth/internal/textnorm"
)

// MaxCoherenceSample bounds the number of distinct values sampled per column
// when computing coherence; all-pairs NPMI over very long columns would be
// quadratic. Sampling the first k distinct values preserves the signal
// because incoherence (mixed concepts) shows up in any sizeable sample.
const MaxCoherenceSample = 30

// ColumnCoherence computes S(C) (Equation 2): the average pairwise NPMI over
// the column's distinct normalized values. Columns with fewer than two
// distinct values are vacuously coherent and score 1. For columns with more
// than MaxCoherenceSample distinct values, the first MaxCoherenceSample in
// order of appearance are used.
//
// Because the scored column is itself part of the index, each value pair's
// co-occurrence count is discounted by one (and each value's document
// frequency likewise): the question the filter asks is whether the values
// co-occur anywhere *else* in the corpus. Without the discount, a column of
// unique garbage would score NPMI ≈ 1 from its own self-co-occurrence.
func (x *CooccurrenceIndex) ColumnCoherence(values []string) float64 {
	// The posting list of every sampled value is fetched once, here; the
	// pairwise loop below then only intersects lists.
	posts := make([][]int32, 0, MaxCoherenceSample)
	seen := make(map[string]struct{}, MaxCoherenceSample)
	for _, v := range values {
		nv := textnorm.Normalize(v)
		if nv == "" {
			continue
		}
		if _, ok := seen[nv]; ok {
			continue
		}
		seen[nv] = struct{}{}
		posts = append(posts, x.columns[nv])
		if len(posts) >= MaxCoherenceSample {
			break
		}
	}
	if len(posts) < 2 {
		return 1
	}
	var sum float64
	var pairs int
	for i := 0; i < len(posts); i++ {
		for j := i + 1; j < len(posts); j++ {
			s, ok := x.npmiDiscounted(posts[i], posts[j])
			if !ok {
				continue // no evidence either way; neutral
			}
			sum += s
			pairs++
		}
	}
	if pairs == 0 {
		// No value pair has any corpus evidence outside this column:
		// treat as neutral rather than incoherent (rare long-tail columns).
		return 0
	}
	return sum / float64(pairs)
}

// npmiDiscounted is NPMI of two values, given their posting lists, with one
// column of co-occurrence (the column under evaluation) removed from all
// counts. The boolean is false when either value never appears outside this
// column — such pairs carry no evidence about coherence and are skipped (at
// web scale every real value occurs elsewhere; at laptop scale long-tail
// synonyms may not).
func (x *CooccurrenceIndex) npmiDiscounted(u, v []int32) (float64, bool) {
	du := len(u) - 1
	dv := len(v) - 1
	if du <= 0 || dv <= 0 {
		return 0, false
	}
	co := intersectCount(u, v) - 1
	if co <= 0 || x.n <= 1 {
		// Both values are known elsewhere but never together: strong
		// evidence of incoherence.
		return -1, true
	}
	n := float64(x.n)
	puv := float64(co) / n
	if puv >= 1 {
		return 1, true
	}
	pu := float64(du) / n
	pv := float64(dv) / n
	pmi := math.Log(puv / (pu * pv))
	return pmi / (-math.Log(puv)), true
}
