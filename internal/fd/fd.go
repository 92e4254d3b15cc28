// Package fd checks (approximate) functional dependencies on column pairs
// (Definitions 1 and 2 of the paper).
//
// A column pair (L, R) satisfies the FD L -> R when every distinct left
// value maps to exactly one right value. Because entity-name ambiguity makes
// exact FDs brittle ("Portland" -> Oregon and "Portland" -> Maine), the
// pipeline uses θ-approximate FDs: the dependency must hold on a subset
// covering at least θ of the rows (θ ≈ 0.95).
package fd

import (
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// DefaultTheta is the paper's approximate-FD threshold.
const DefaultTheta = 0.95

// Result describes the outcome of an FD check on a column pair.
type Result struct {
	// Rows is the number of rows considered (pairs with non-empty
	// normalized left value).
	Rows int
	// Keeping is the maximum number of rows that can be kept such that the
	// kept subset satisfies the exact FD: for each left value, the count of
	// its most frequent right value.
	Keeping int
	// Ratio is Keeping / Rows, or 1 for an empty input.
	Ratio float64
	// DistinctLeft is the number of distinct normalized left values.
	DistinctLeft int
	// DistinctRight is the number of distinct normalized right values.
	DistinctRight int
}

// Holds reports whether the checked pair satisfies the θ-approximate FD.
func (r Result) Holds(theta float64) bool { return r.Ratio >= theta }

// Check measures to what degree the FD left -> right holds over two parallel
// value slices. Values are normalized first; rows whose left value
// normalizes to empty are ignored. Duplicate rows count once per occurrence
// (as in the paper, which reasons over relation instances).
func Check(left, right []string) Result {
	n := len(left)
	if len(right) < n {
		n = len(right)
	}
	// For each left value, count occurrences of each right value.
	counts := make(map[string]map[string]int)
	rightSet := make(map[string]struct{})
	rows := 0
	for i := 0; i < n; i++ {
		nl := textnorm.Normalize(left[i])
		if nl == "" {
			continue
		}
		nr := textnorm.Normalize(right[i])
		rows++
		m, ok := counts[nl]
		if !ok {
			m = make(map[string]int, 1)
			counts[nl] = m
		}
		m[nr]++
		rightSet[nr] = struct{}{}
	}
	keeping := 0
	for _, m := range counts {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		keeping += best
	}
	res := Result{
		Rows:          rows,
		Keeping:       keeping,
		DistinctLeft:  len(counts),
		DistinctRight: len(rightSet),
	}
	if rows == 0 {
		res.Ratio = 1
	} else {
		res.Ratio = float64(keeping) / float64(rows)
	}
	return res
}

// Checker is Check over columns of interned values: every cell is a dense
// id of its normalized value, with id 0 for the empty value, so no value is
// normalized or hashed as a string again however many column pairs a table
// has. A Checker reuses its state across checks; it is not safe for
// concurrent use. The zero value is ready to use.
type Checker struct {
	// counts[l<<32|r] is how often left id l meets right id r.
	counts map[uint64]int32
	// seenL[id] and seenR[id] are the stamp of the last check that saw id
	// as a left or right value; best[l] is, for the current check, the
	// count of left id l's most frequent right id.
	seenL, seenR []uint32
	best         []int32
	stamp        uint32
}

// CheckIDs is Check over two parallel id columns whose ids are below
// numIDs: rows whose left id is 0 are ignored, and every id stands for its
// normalized value.
func (c *Checker) CheckIDs(left, right []int32, numIDs int) Result {
	if len(c.seenL) < numIDs {
		c.seenL = append(c.seenL, make([]uint32, numIDs-len(c.seenL))...)
		c.seenR = append(c.seenR, make([]uint32, numIDs-len(c.seenR))...)
		c.best = append(c.best, make([]int32, numIDs-len(c.best))...)
	}
	if c.stamp++; c.stamp == 0 { // wrapped: no stale stamp may match
		clear(c.seenL)
		clear(c.seenR)
		c.stamp = 1
	}
	if c.counts == nil {
		c.counts = make(map[uint64]int32)
	}
	clear(c.counts)
	n := min(len(left), len(right))
	var res Result
	for i := 0; i < n; i++ {
		l, r := left[i], right[i]
		if l == 0 {
			continue
		}
		res.Rows++
		if c.seenL[l] != c.stamp {
			c.seenL[l], c.best[l] = c.stamp, 0
			res.DistinctLeft++
		}
		if c.seenR[r] != c.stamp {
			c.seenR[r] = c.stamp
			res.DistinctRight++
		}
		k := uint64(l)<<32 | uint64(r)
		cnt := c.counts[k] + 1
		c.counts[k] = cnt
		if cnt > c.best[l] { // the best count of l grows by one
			c.best[l] = cnt
			res.Keeping++
		}
	}
	res.Ratio = 1
	if res.Rows > 0 {
		res.Ratio = float64(res.Keeping) / float64(res.Rows)
	}
	return res
}

// CheckPairs is Check over a deduplicated pair slice (e.g. a BinaryTable's
// pairs). Each distinct pair counts once.
func CheckPairs(pairs []table.Pair) Result {
	left := make([]string, len(pairs))
	right := make([]string, len(pairs))
	for i, p := range pairs {
		left[i] = p.L
		right[i] = p.R
	}
	return Check(left, right)
}
