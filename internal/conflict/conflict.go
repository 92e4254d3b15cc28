// Package conflict implements post-synthesis conflict resolution
// (Problem 17 and Algorithm 4 of the paper).
//
// A synthesized partition unions many raw tables; a few carry erroneous
// values (e.g. the swapped chemical symbols of Figure 4) that violate the
// mapping definition: the same left value appearing with different right
// values. Finding the largest conflict-free subset of tables is NP-hard
// (Independent Set), so Resolve greedily removes the table holding the value
// pair with the most conflicts until none remain. MajorityVotePairs is the
// simpler per-value baseline the paper compares against in Section 5.6.
//
// Nothing here normalizes values: every function reads the tables'
// normalized views (table.BinaryTable.Norm), built once per table for all
// stages of a run.
package conflict

import (
	"slices"
	"sort"

	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
)

// Options configures conflict detection.
type Options struct {
	// FracEd and KEd parameterize approximate matching of right values;
	// approximately-equal right values do not conflict.
	FracEd float64
	KEd    int
	// Synonyms, when non-nil, prevents known synonym pairs from counting
	// as conflicts.
	Synonyms *strmatch.SynonymFeed
}

// DefaultOptions mirrors the matcher defaults used during synthesis.
func DefaultOptions() Options {
	return Options{FracEd: strmatch.DefaultFracEd, KEd: strmatch.DefaultKEd}
}

// matcher builds the right-value matcher the options describe.
func (o Options) matcher() *strmatch.Matcher {
	m := strmatch.NewMatcher(o.FracEd, o.KEd)
	if o.Synonyms != nil {
		m.SetSynonyms(o.Synonyms)
	}
	return m
}

// Resolve runs Algorithm 4 on the candidate tables of one partition and
// returns the kept tables and the removed ones, each in input order and
// removal order respectively. The kept set has no conflicting value pairs
// across tables (nor within a table).
//
// Every round removes the table whose worst value pair conflicts with the
// most other pairs: cntV(v1,v2) is the number of distinct pairs of the kept
// tables sharing the left value but disagreeing on the right, cntB(Bi) the
// maximum over Bi's pairs. Ties break toward the table with fewer pairs
// (removing it loses less coverage), then the higher candidate ID (later
// extraction order), then the earlier position.
//
// The pairs come from the tables' normalized views and are interned once;
// which right values disagree is decided once per pair of pairs. A removal
// then only lowers the counts of the pairs that conflicted with what the
// removed table alone contributed, so a round is integer work.
func Resolve(cands []*table.BinaryTable, opt Options) (kept, removed []*table.BinaryTable) {
	r := newResolver(cands, opt)
	alive := make([]bool, len(cands))
	for i := range alive {
		alive[i] = true
	}
	for r.conflicting > 0 {
		worst := r.mostConflictingTable(cands, alive)
		alive[worst] = false
		removed = append(removed, cands[worst])
		r.remove(worst)
	}
	for i, b := range cands {
		if alive[i] {
			kept = append(kept, b)
		}
	}
	return kept, removed
}

// resolver is the state of one Resolve call over the union of the tables'
// distinct normalized pairs, numbered densely in first-seen order.
type resolver struct {
	// tablePairs[t] lists the pairs of table t.
	tablePairs [][]int32
	// holders[p] is the number of kept tables containing pair p.
	holders []int32
	// disagree[p] lists the pairs with p's left value whose right value does
	// not match p's. The relation is symmetric.
	disagree [][]int32
	// cntV[p] is the number of pairs in disagree[p] some kept table holds.
	cntV []int32
	// conflicting is the number of held pairs with cntV > 0; resolution is
	// done when it reaches zero.
	conflicting int
}

func newResolver(cands []*table.BinaryTable, opt Options) *resolver {
	matcher := opt.matcher()
	// The tables of a partition share most of their pairs, so the largest
	// one is the size hint for the distinct pairs.
	total, largest := 0, 0
	for _, b := range cands {
		total += len(b.Norm().Pairs)
		largest = max(largest, len(b.Norm().Pairs))
	}
	r := &resolver{tablePairs: make([][]int32, len(cands)), holders: make([]int32, 0, largest)}
	// Group the distinct pairs of the union by normalized left value; a
	// group is a handful of right values, so a linear scan finds repeats.
	// A group is a chain through its pairs, newest first: last[g] is its
	// newest pair and prev[p] the pair before p in p's group, or -1.
	groupOf := make(map[string]int32, largest)
	last := make([]int32, 0, largest)
	prev := make([]int32, 0, largest)
	rightOf := make([]string, 0, largest) // by pair
	ids := make([]int32, total)
	for t, b := range cands {
		norm := b.Norm().Pairs
		r.tablePairs[t], ids = ids[:len(norm):len(norm)], ids[len(norm):]
	pairs:
		for i, np := range norm {
			g, ok := groupOf[np.L]
			if !ok {
				g = int32(len(last))
				groupOf[np.L] = g
				last = append(last, -1)
			}
			for id := last[g]; id >= 0; id = prev[id] {
				if rightOf[id] == np.R {
					r.tablePairs[t][i] = id
					r.holders[id]++
					continue pairs
				}
			}
			id := int32(len(r.holders))
			prev, rightOf = append(prev, last[g]), append(rightOf, np.R)
			last[g] = id
			r.holders = append(r.holders, 1)
			r.tablePairs[t][i] = id
		}
	}
	r.disagree = make([][]int32, len(r.holders))
	r.cntV = make([]int32, len(r.holders))
	var rs []int32 // one group's pairs, oldest first
	for _, newest := range last {
		rs = rs[:0]
		for id := newest; id >= 0; id = prev[id] {
			rs = append(rs, id)
		}
		slices.Reverse(rs)
		for i, a := range rs {
			for _, b := range rs[i+1:] {
				if !matcher.MatchNormalized(rightOf[a], rightOf[b]) {
					r.disagree[a] = append(r.disagree[a], b)
					r.disagree[b] = append(r.disagree[b], a)
				}
			}
		}
	}
	for p, ds := range r.disagree {
		r.cntV[p] = int32(len(ds))
		if len(ds) > 0 {
			r.conflicting++
		}
	}
	return r
}

// mostConflictingTable returns the index of the kept table with the highest
// cntB under Resolve's tie-breaking. It must only be called while some held
// pair conflicts.
func (r *resolver) mostConflictingTable(cands []*table.BinaryTable, alive []bool) int {
	bestIdx, bestCnt, bestSize := -1, int32(0), 0
	for i, b := range cands {
		if !alive[i] {
			continue
		}
		c := int32(0)
		for _, p := range r.tablePairs[i] {
			c = max(c, r.cntV[p])
		}
		if c == 0 {
			continue
		}
		better := false
		switch {
		case c > bestCnt:
			better = true
		case c == bestCnt && b.Size() < bestSize:
			better = true
		case c == bestCnt && b.Size() == bestSize && b.ID > cands[bestIdx].ID:
			better = true
		}
		if better {
			bestIdx, bestCnt, bestSize = i, c, b.Size()
		}
	}
	return bestIdx
}

// remove takes table t out of the kept set: pairs only it held disappear
// from the union, and with them their share of every disagreeing pair's
// count.
func (r *resolver) remove(t int) {
	for _, p := range r.tablePairs[t] {
		r.holders[p]--
		if r.holders[p] > 0 {
			continue
		}
		if r.cntV[p] > 0 {
			r.conflicting--
		}
		for _, q := range r.disagree[p] {
			if r.holders[q] == 0 {
				continue
			}
			r.cntV[q]--
			if r.cntV[q] == 0 {
				r.conflicting--
			}
		}
	}
}

// CountConflicts returns the number of normalized left values with
// disagreeing right values across the union of the given tables. Zero means
// the set already satisfies the mapping definition.
func CountConflicts(cands []*table.BinaryTable, opt Options) int {
	matcher := opt.matcher()
	byLeft := make(map[string][]string)
	seen := make(map[string]struct{})
	for _, b := range cands {
		for _, np := range b.Norm().Pairs {
			if _, dup := seen[np.Key]; dup {
				continue
			}
			seen[np.Key] = struct{}{}
			byLeft[np.L] = append(byLeft[np.L], np.R)
		}
	}
	conflicts := 0
	for _, rs := range byLeft {
		if len(rs) < 2 {
			continue
		}
		conflict := false
		for i := 0; i < len(rs) && !conflict; i++ {
			for j := i + 1; j < len(rs); j++ {
				if !matcher.MatchNormalized(rs[i], rs[j]) {
					conflict = true
					break
				}
			}
		}
		if conflict {
			conflicts++
		}
	}
	return conflicts
}

// MajorityVotePairs is the baseline resolution strategy (§5.6): for every
// normalized left value keep only the right value supported by the most
// candidate tables (ties break lexicographically on the normalized right
// value). It returns the surviving pairs with representative surface forms.
func MajorityVotePairs(cands []*table.BinaryTable) []table.Pair {
	type rightVote struct {
		count   int
		surface table.Pair
	}
	votes := make(map[string]map[string]*rightVote)
	for _, b := range cands {
		for _, np := range b.Norm().Pairs {
			rm, okL := votes[np.L]
			if !okL {
				rm = make(map[string]*rightVote)
				votes[np.L] = rm
			}
			rv, okR := rm[np.R]
			if !okR {
				rv = &rightVote{surface: b.Pairs[np.Src]}
				rm[np.R] = rv
			}
			rv.count++
		}
	}
	var out []table.Pair
	for _, rm := range votes {
		rs := make([]string, 0, len(rm))
		for r := range rm {
			rs = append(rs, r)
		}
		sort.Strings(rs)
		bestR, bestC := "", -1
		for _, r := range rs {
			if rm[r].count > bestC {
				bestR, bestC = r, rm[r].count
			}
		}
		out = append(out, rm[bestR].surface)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].L != out[j].L {
			return out[i].L < out[j].L
		}
		return out[i].R < out[j].R
	})
	return out
}
