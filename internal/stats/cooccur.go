// Package stats computes corpus co-occurrence statistics used for column
// coherence filtering (Section 3.1 of the paper).
//
// The coherence of two values u, v is their Normalized Pointwise Mutual
// Information over column co-occurrence in the corpus:
//
//	PMI(u,v)  = log( p(u,v) / (p(u)·p(v)) )
//	NPMI(u,v) = PMI(u,v) / (-log p(u,v))            ∈ [-1, 1]
//
// where p(u) = |C(u)|/N, p(v) = |C(v)|/N, p(u,v) = |C(u)∩C(v)|/N, C(u) is the
// set of corpus columns containing u and N the total number of columns. A
// column's coherence S(C) is the average pairwise NPMI of its values
// (Equation 2); incoherent columns (mixed concepts, extraction glitches) are
// filtered before candidate extraction.
package stats

import (
	"context"
	"math"
	"slices"

	"mapsynth/internal/pool"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// CooccurrenceIndex maps each normalized value to the set of corpus columns
// containing it, enabling PMI computation. Column identity is a dense integer
// assigned during Build.
type CooccurrenceIndex struct {
	// columns[v] lists the column IDs containing normalized value v, sorted
	// ascending without duplicates.
	columns map[string][]int32
	// n is the total number of columns indexed.
	n int
}

// NewIndex returns an empty index; Append fills it.
func NewIndex() *CooccurrenceIndex {
	return &CooccurrenceIndex{columns: make(map[string][]int32)}
}

// BuildIndex scans a corpus and indexes every column of every table on one
// worker: an empty index plus Append.
func BuildIndex(tables []*table.Table) *CooccurrenceIndex {
	idx := NewIndex()
	_ = idx.Append(context.Background(), tables, pool.New(1)) // never cancelled
	return idx
}

// Append indexes additional tables in place, continuing the dense column ID
// sequence where the previous build stopped. Values are normalized before
// indexing; empty normalized values are skipped. Because column IDs are
// assigned in table order and posting lists are appended in increasing ID,
// the result is exactly the index of the concatenated corpus — the identity
// the incremental pipeline relies on. Appending re-weights every NPMI (N
// grows), which is why the incremental path re-runs extraction globally
// while reusing this index.
//
// Each table's columns are normalized and de-duplicated on p; the posting
// lists are then appended sequentially in column order, so the index is the
// same for any worker count. Cancellation during the first phase returns
// ctx's error and leaves the index as it was.
func (x *CooccurrenceIndex) Append(ctx context.Context, tables []*table.Table, p *pool.Pool) error {
	distinct := make([][][]string, len(tables)) // per table and column: its distinct normalized values
	if err := p.ForEach(ctx, len(tables), func(i int) {
		t := tables[i]
		cols := make([][]string, len(t.Columns))
		n := 0
		for ci := range t.Columns {
			n += len(t.Columns[ci].Values)
		}
		buf := make([]string, 0, n)
		for ci := range t.Columns {
			start := len(buf)
			for _, v := range t.Columns[ci].Values {
				if nv := textnorm.Normalize(v); nv != "" {
					buf = append(buf, nv)
				}
			}
			// A column's values reach the index as a set: sort to drop the
			// repeats.
			col := buf[start:]
			slices.Sort(col)
			cols[ci] = slices.Compact(col)
			buf = buf[:start+len(cols[ci])]
		}
		distinct[i] = cols
	}); err != nil {
		return err
	}
	colID := int32(x.n)
	for _, cols := range distinct {
		for _, col := range cols {
			for _, nv := range col {
				x.columns[nv] = append(x.columns[nv], colID)
			}
			colID++
		}
	}
	x.n = int(colID)
	return nil
}

// NumColumns returns N, the total number of columns indexed.
func (x *CooccurrenceIndex) NumColumns() int { return x.n }

// DocFreq returns |C(v)| for a normalized value v: the number of distinct
// columns containing it.
func (x *CooccurrenceIndex) DocFreq(v string) int { return len(x.columns[v]) }

// CoFreq returns |C(u) ∩ C(v)|: the number of columns containing both
// normalized values.
func (x *CooccurrenceIndex) CoFreq(u, v string) int {
	return intersectCount(x.columns[u], x.columns[v])
}

// intersectCount returns the size of the intersection of two ascending,
// duplicate-free posting lists.
func intersectCount(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	// a is shorter. Lists of similar length are merged; a much longer b is
	// searched instead, each search starting where the last one ended.
	count := 0
	if len(b) < 8*len(a) {
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i] == b[j]:
				count++
				i++
				j++
			case a[i] < b[j]:
				i++
			default:
				j++
			}
		}
		return count
	}
	for _, id := range a {
		lo, hi := 0, len(b)
		for lo < hi { // first position with b[pos] >= id
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(b) {
			break
		}
		if b[lo] == id {
			count++
			lo++
		}
		b = b[lo:]
	}
	return count
}

// PMI returns the pointwise mutual information of two normalized values, or
// negative infinity if they never co-occur or either is unseen.
func (x *CooccurrenceIndex) PMI(u, v string) float64 {
	co := x.CoFreq(u, v)
	if co == 0 || x.n == 0 {
		return math.Inf(-1)
	}
	pu := float64(x.DocFreq(u)) / float64(x.n)
	pv := float64(x.DocFreq(v)) / float64(x.n)
	puv := float64(co) / float64(x.n)
	return math.Log(puv / (pu * pv))
}

// NPMI returns the normalized PMI of two normalized values in [-1, 1].
// Values that never co-occur score -1. Identical values with non-zero
// frequency score their self-association (1 for values that always co-occur
// with themselves, which is definitionally true).
func (x *CooccurrenceIndex) NPMI(u, v string) float64 {
	co := x.CoFreq(u, v)
	if co == 0 || x.n == 0 {
		return -1
	}
	puv := float64(co) / float64(x.n)
	if puv >= 1 {
		return 1
	}
	pmi := x.PMI(u, v)
	return pmi / (-math.Log(puv))
}
