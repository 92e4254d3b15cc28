package compat

import (
	"sort"

	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// This file preserves the string-and-map implementation that the interned
// one replaced — candidate view, w+, w-, inverted-index blocking and the
// two-pass graph build — verbatim apart from renames, as the oracle of the
// differential tests in differential_test.go. It normalizes with textnorm
// itself, so it also checks the normalized view it no longer shares.

// oracleCandidate is Candidate as it was: sorted string keys and a map from
// left value to right values.
type oracleCandidate struct {
	ID       int
	PairKeys []string
	Lefts    map[string][]string
	LeftKeys []string
}

func oraclePrecompute(bins []*table.BinaryTable) []*oracleCandidate {
	out := make([]*oracleCandidate, len(bins))
	for i, b := range bins {
		out[i] = oraclePrecomputeOne(i, b)
	}
	return out
}

func oraclePrecomputeOne(id int, b *table.BinaryTable) *oracleCandidate {
	c := &oracleCandidate{ID: id, Lefts: make(map[string][]string)}
	keySet := make(map[string]struct{}, len(b.Pairs))
	for _, p := range b.Pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		k := textnorm.PairKey(nl, nr)
		if _, dup := keySet[k]; dup {
			continue
		}
		keySet[k] = struct{}{}
		c.Lefts[nl] = appendUnique(c.Lefts[nl], nr)
	}
	c.PairKeys = make([]string, 0, len(keySet))
	for k := range keySet {
		c.PairKeys = append(c.PairKeys, k)
	}
	sort.Strings(c.PairKeys)
	c.LeftKeys = make([]string, 0, len(c.Lefts))
	for l := range c.Lefts {
		c.LeftKeys = append(c.LeftKeys, l)
	}
	sort.Strings(c.LeftKeys)
	return c
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

type oracleComputer struct {
	opt     Options
	matcher *strmatch.Matcher
}

func newOracleComputer(opt Options) *oracleComputer {
	m := strmatch.NewMatcher(opt.FracEd, opt.KEd)
	if opt.Synonyms != nil {
		m.SetSynonyms(opt.Synonyms)
	}
	return &oracleComputer{opt: opt, matcher: m}
}

func (cp *oracleComputer) Positive(a, b *oracleCandidate) float64 {
	if len(a.PairKeys) == 0 || len(b.PairKeys) == 0 {
		return 0
	}
	inter, resA, resB := oracleIntersectSorted(a.PairKeys, b.PairKeys)
	matched := inter
	if len(resA) > 0 && len(resB) > 0 && len(resA)*len(resB) <= cp.opt.MaxApproxProduct {
		matched += cp.approxResidual(resA, resB)
	}
	denom := len(a.PairKeys)
	if len(b.PairKeys) < denom {
		denom = len(b.PairKeys)
	}
	return float64(matched) / float64(denom)
}

func (cp *oracleComputer) approxResidual(resA, resB []string) int {
	used := make([]bool, len(resB))
	count := 0
	for _, ka := range resA {
		la, ra := textnorm.SplitPairKey(ka)
		for j, kb := range resB {
			if used[j] {
				continue
			}
			lb, rb := textnorm.SplitPairKey(kb)
			if cp.matcher.MatchNormalized(la, lb) && cp.matcher.MatchNormalized(ra, rb) {
				used[j] = true
				count++
				break
			}
		}
	}
	return count
}

func (cp *oracleComputer) Negative(a, b *oracleCandidate) float64 {
	if len(a.Lefts) == 0 || len(b.Lefts) == 0 {
		return 0
	}
	small, large := a, b
	if len(small.Lefts) > len(large.Lefts) {
		small, large = large, small
	}
	conflicts := 0
	for l, rsA := range small.Lefts {
		rsB, ok := large.Lefts[l]
		if !ok {
			continue
		}
		if cp.rightsConflict(rsA, rsB) {
			conflicts++
		}
	}
	if conflicts == 0 {
		return 0
	}
	denom := len(a.PairKeys)
	if len(b.PairKeys) < denom {
		denom = len(b.PairKeys)
	}
	return -float64(conflicts) / float64(denom)
}

func (cp *oracleComputer) rightsConflict(rsA, rsB []string) bool {
	for _, ra := range rsA {
		found := false
		for _, rb := range rsB {
			if cp.matcher.MatchNormalized(ra, rb) {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	for _, rb := range rsB {
		found := false
		for _, ra := range rsA {
			if cp.matcher.MatchNormalized(ra, rb) {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

func (cp *oracleComputer) ConflictLeftValues(a, b *oracleCandidate) []string {
	var out []string
	for l, rsA := range a.Lefts {
		rsB, ok := b.Lefts[l]
		if !ok {
			continue
		}
		if cp.rightsConflict(rsA, rsB) {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

func oracleIntersectSorted(a, b []string) (inter int, resA, resB []string) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			resA = append(resA, a[i])
			i++
		default:
			resB = append(resB, b[j])
			j++
		}
	}
	resA = append(resA, a[i:]...)
	resB = append(resB, b[j:]...)
	return inter, resA, resB
}

// packPair packs a candidate pair (a<<32 | b) with a < b, the key of the
// oracle's shared-key counter.
func packPair(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

func unpackPair(k uint64) (int, int) {
	return int(k >> 32), int(uint32(k))
}

func oracleBlockedPairs(cands []*oracleCandidate, thetaOverlap int) (posPairs, negPairs [][2]int) {
	if thetaOverlap < 1 {
		thetaOverlap = 1
	}
	posPairs = oracleBlockBy(cands, thetaOverlap, func(c *oracleCandidate) []string { return c.PairKeys })
	negPairs = oracleBlockBy(cands, thetaOverlap, func(c *oracleCandidate) []string { return c.LeftKeys })
	return posPairs, negPairs
}

// oracleBlockBy builds an inverted index over the given key extractor and
// counts shared keys per candidate pair in one global map.
func oracleBlockBy(cands []*oracleCandidate, thetaOverlap int, keys func(*oracleCandidate) []string) [][2]int {
	inv := make(map[string][]int32)
	for _, c := range cands {
		for _, k := range keys(c) {
			inv[k] = append(inv[k], int32(c.ID))
		}
	}
	counts := make(map[uint64]int32)
	for _, ids := range inv {
		if len(ids) < 2 || len(ids) > MaxPostingLen {
			continue
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				counts[packPair(int(ids[i]), int(ids[j]))]++
			}
		}
	}
	out := make([][2]int, 0, len(counts))
	for k, c := range counts {
		if int(c) >= thetaOverlap {
			a, b := unpackPair(k)
			out = append(out, [2]int{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// oracleEdge is one edge of the oracle's graph.
type oracleEdge struct {
	A, B     int
	Pos, Neg float64
}

// oracleBuildGraph is the two-pass build: block, score every blocked pair,
// merge the passes per pair in a map, and list the edges sorted by (A, B).
func oracleBuildGraph(cands []*oracleCandidate, opt Options) []oracleEdge {
	cp := newOracleComputer(opt)
	posPairs, negPairs := oracleBlockedPairs(cands, opt.ThetaOverlap)
	type acc struct{ pos, neg float64 }
	merged := make(map[uint64]*acc)
	at := func(a, b int) *acc {
		k := packPair(a, b)
		if merged[k] == nil {
			merged[k] = &acc{}
		}
		return merged[k]
	}
	for _, p := range posPairs {
		if pw := cp.Positive(cands[p[0]], cands[p[1]]); pw >= opt.ThetaEdge && pw != 0 {
			at(p[0], p[1]).pos = pw
		}
	}
	for _, p := range negPairs {
		if nw := cp.Negative(cands[p[0]], cands[p[1]]); nw != 0 {
			at(p[0], p[1]).neg = nw
		}
	}
	var out []oracleEdge
	for k, a := range merged {
		x, y := unpackPair(k)
		out = append(out, oracleEdge{A: x, B: y, Pos: a.pos, Neg: a.neg})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
