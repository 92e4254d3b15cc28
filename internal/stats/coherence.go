package stats

import (
	"math"
	"math/bits"
	"sync"

	"mapsynth/internal/textnorm"
)

// MaxCoherenceSample bounds the number of distinct values sampled per column
// when computing coherence; all-pairs NPMI over very long columns would be
// quadratic. Sampling the first k distinct values preserves the signal
// because incoherence (mixed concepts) shows up in any sizeable sample.
const MaxCoherenceSample = 30

// The co-occurrence sweep gives every column one uint32 bitmask over the
// sampled values, so the sample must fit in it.
const _ = uint(32 - MaxCoherenceSample)

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
	sample := make([]string, 0, MaxCoherenceSample)
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
		if sample = append(sample, nv); len(sample) >= MaxCoherenceSample {
			break
		}
	}
	return x.Coherence(sample)
}

// Coherence is ColumnCoherence over a sample the caller has already drawn:
// the column's first distinct non-empty normalized values in order of
// appearance, at most MaxCoherenceSample of them. Callers holding the
// column's normalized cells use it to avoid normalizing them again.
//
// The co-occurrence counts of all sampled pairs come from one sweep over
// their posting lists: every column gets a bitmask of the sampled values
// it holds, and each column holding two or more adds one to each of their
// pairs. The NPMI sum then runs over those counts in pair order, so it is
// the float the pairwise intersection of posting lists gives.
func (x *CooccurrenceIndex) Coherence(sample []string) float64 {
	k := len(sample)
	if k < 2 {
		return 1
	}
	var posts [MaxCoherenceSample][]int32
	for i, v := range sample {
		posts[i] = x.columns[v]
	}
	sc := x.coherenceScratch()
	defer coherenceScratches.Put(sc)
	for i := 0; i < k; i++ {
		if len(posts[i]) <= 1 {
			continue // no column besides the scored one: no evidence
		}
		bit := uint32(1) << i
		for _, c := range posts[i] {
			if sc.mask[c] == 0 {
				sc.touched = append(sc.touched, c)
			}
			sc.mask[c] |= bit
		}
	}
	co := &sc.co
	for _, c := range sc.touched {
		m := sc.mask[c]
		sc.mask[c] = 0
		for m&(m-1) != 0 { // two or more sampled values in column c
			i := bits.TrailingZeros32(m)
			m &= m - 1
			row := co[i*MaxCoherenceSample : (i+1)*MaxCoherenceSample]
			for r := m; r != 0; r &= r - 1 {
				row[bits.TrailingZeros32(r)]++
			}
		}
	}
	sc.touched = sc.touched[:0]

	var sum float64
	var pairs int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			c := &co[i*MaxCoherenceSample+j]
			s, ok := x.npmiDiscounted(len(posts[i])-1, len(posts[j])-1, int(*c)-1)
			*c = 0
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

// coherenceScratch is one worker's state for the co-occurrence sweep. mask
// is indexed by column id and co by sampled-value pair; both are all zero
// between calls, and touched is empty.
type coherenceScratch struct {
	mask    []uint32
	touched []int32
	co      [MaxCoherenceSample * MaxCoherenceSample]int32
}

// coherenceScratches holds one *coherenceScratch per concurrent Coherence
// call. The pool is not the index's, so it keeps no index alive.
var coherenceScratches sync.Pool

// coherenceScratch takes a scratch from the pool, grown to the index's
// current column count (Append raises it).
func (x *CooccurrenceIndex) coherenceScratch() *coherenceScratch {
	sc, _ := coherenceScratches.Get().(*coherenceScratch)
	if sc == nil {
		sc = new(coherenceScratch)
	}
	if len(sc.mask) < x.n {
		sc.mask = append(sc.mask, make([]uint32, x.n-len(sc.mask))...)
	}
	return sc
}

// npmiDiscounted is NPMI of two values from their document frequencies du,
// dv and co-occurrence count co, each with one column of co-occurrence (the
// column under evaluation) already removed. The boolean is false when
// either value never appears outside this column — such pairs carry no
// evidence about coherence and are skipped (at web scale every real value
// occurs elsewhere; at laptop scale long-tail synonyms may not).
func (x *CooccurrenceIndex) npmiDiscounted(du, dv, co int) (float64, bool) {
	if du <= 0 || dv <= 0 {
		return 0, false
	}
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
