// Package compat computes pairwise table compatibility (Section 4.1):
// positive compatibility w+ as the symmetric maximum of containment over
// shared value pairs (Equation 3, with approximate string matching), and
// negative incompatibility w- from FD-violating conflicts (Equation 4).
//
// Because all-pairs computation is quadratic, candidate pairs are blocked
// with inverted indexes exactly like the paper's Map-Reduce regrouping:
// w+ is evaluated only for candidate pairs sharing at least ThetaOverlap
// value pairs, and w- only for pairs sharing at least ThetaOverlap
// left-hand-side values.
//
// Everything here runs on dense integer ids, not strings. PrecomputeParallel
// takes each table's normalized view (table.BinaryTable.Norm, computed once
// per table for all stages), interns the pair keys of the whole candidate
// set into one dictionary and numbers them by rank in key order; a left
// value's id is the rank of its run in that order. Blocking is then
// ScanCount over posting arrays indexed by id, w+ an intersection of sorted
// id slices and w- a merge-join of sorted left ids; strings are touched only
// by the approximate matcher. BuildGraphCtx fuses blocking and w+ scoring
// into one pass over candidate rows and emits the edge list already sorted.
//
// w- is scored only inside positive components (candidates joined by a path
// of w+ > 0 edges): greedy synthesis merges only along positive weight, so a
// negative edge between positive components can never bind. A union-find
// over the first pass's w+ edges finds the components, and a second pass
// over the rows scores the neg-blocked pairs inside one and drops the rest.
// The graph's connected components are then its positive components, the
// units of the paper's divide and conquer (Appendix F).
package compat

import (
	"context"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"mapsynth/internal/pool"
	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
)

// Options configures compatibility computation.
type Options struct {
	// ThetaOverlap is the minimum number of shared normalized value pairs
	// (for w+) or shared left values (for w-) before a candidate pair is
	// evaluated at all. Paper: a small constant (we default to 2).
	ThetaOverlap int
	// ThetaEdge drops positive edges weaker than this threshold from the
	// graph (Section 5.4 reports θedge = 0.85 works best at web scale; the
	// right value depends on corpus density).
	ThetaEdge float64
	// FracEd and KEd parameterize approximate string matching.
	FracEd float64
	KEd    int
	// MaxApproxProduct bounds the residual×residual approximate-matching
	// work per candidate pair; beyond it only exact matches count.
	MaxApproxProduct int
	// Synonyms, when non-nil, lets known synonyms match and prevents
	// synonym pairs from counting as conflicts.
	Synonyms *strmatch.SynonymFeed
}

// DefaultOptions returns sensible defaults for laptop-scale corpora. The
// paper's θedge = 0.85 presumes web-scale table redundancy; small corpora
// connect relation fragments through weaker chains, so the default here is
// lower (the sensitivity experiment sweeps it).
func DefaultOptions() Options {
	return Options{
		ThetaOverlap:     2,
		ThetaEdge:        0.2,
		FracEd:           strmatch.DefaultFracEd,
		KEd:              strmatch.DefaultKEd,
		MaxApproxProduct: 4096,
	}
}

// Candidate is the interned view of one BinaryTable used by all pairwise
// computations. Its ids are positions in the dictionary of the candidate set
// it was precomputed with: candidates are comparable only with others from
// the same PrecomputeParallel call.
type Candidate struct {
	// ID is the dense candidate index (== position in the slice returned
	// by PrecomputeParallel).
	ID int
	// Bin is the underlying binary table.
	Bin *table.BinaryTable
	// PairIDs holds the ids of the distinct normalized pairs, ascending.
	// Ids rank the set's pair keys in string order, so ascending id is
	// ascending key — the order the greedy residual matcher visits.
	PairIDs []uint32
	// pairs[i] is the pair with id PairIDs[i].
	pairs []normPair
	// LeftIDs holds the ids of the distinct normalized left values,
	// ascending. Pairs sorted by key are grouped by left value: those with
	// left LeftIDs[i] are pairs[leftStart[i]:leftStart[i+1]].
	LeftIDs   []uint32
	leftStart []int32
}

// normPair is one normalized pair as the matcher needs it: both halves and
// their lengths in runes, which every threshold is computed from.
type normPair struct {
	key    string // textnorm.PairKey(l, r)
	split  int32  // len(l)
	nl, nr int32  // rune counts of l and r
}

func (p *normPair) l() string { return p.key[:p.split] }
func (p *normPair) r() string { return p.key[p.split+1:] }

// Size returns the number of distinct normalized pairs.
func (c *Candidate) Size() int { return len(c.PairIDs) }

// left returns the i-th distinct normalized left value.
func (c *Candidate) left(i int) string { return c.pairs[c.leftStart[i]].l() }

// rights returns the pairs holding the right values of the i-th left value.
func (c *Candidate) rights(i int) []normPair {
	return c.pairs[c.leftStart[i]:c.leftStart[i+1]]
}

// PrecomputeParallel builds the interned view of every candidate: the i-th
// output corresponds to the i-th input and gets ID i. Normalizing and
// sorting fan out over the worker pool; the dictionary pass between them is
// sequential. Output is identical for any worker count. Cancellation
// returns ctx's error and a nil slice.
func PrecomputeParallel(ctx context.Context, bins []*table.BinaryTable, p *pool.Pool) ([]*Candidate, error) {
	out := make([]*Candidate, len(bins))
	if err := p.ForEach(ctx, len(bins), func(i int) {
		norm := bins[i].Norm().Pairs
		c := &Candidate{ID: i, Bin: bins[i], PairIDs: make([]uint32, len(norm)), pairs: make([]normPair, len(norm))}
		for j, np := range norm {
			c.pairs[j] = normPair{
				key: np.Key, split: int32(len(np.L)),
				nl: int32(utf8.RuneCountInString(np.L)), nr: int32(utf8.RuneCountInString(np.R)),
			}
		}
		slices.SortFunc(c.pairs, func(x, y normPair) int { return strings.Compare(x.key, y.key) })
		out[i] = c
	}); err != nil {
		return nil, err
	}

	// Intern every pair key, first come first numbered.
	first := make(map[string]uint32)
	var keys []*normPair // keys[id] is some candidate's copy of the pair
	for _, c := range out {
		for j := range c.pairs {
			id, ok := first[c.pairs[j].key]
			if !ok {
				id = uint32(len(keys))
				first[c.pairs[j].key] = id
				keys = append(keys, &c.pairs[j])
			}
			c.PairIDs[j] = id
		}
	}
	// Renumber by rank in key order. Sorted keys are grouped by their left
	// value (it is a prefix up to the separator), so numbering the runs
	// gives every left value a dense id without a second dictionary.
	order := make([]uint32, len(keys))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(keys[x].key, keys[y].key) })
	rank := make([]uint32, len(keys))
	leftOf := make([]uint32, len(keys)) // by rank
	lefts := uint32(0)
	for r, id := range order {
		rank[id] = uint32(r)
		if r > 0 && keys[id].l() != keys[order[r-1]].l() {
			lefts++
		}
		leftOf[r] = lefts
	}
	for _, c := range out {
		for j, id := range c.PairIDs {
			c.PairIDs[j] = rank[id]
			if lid := leftOf[rank[id]]; j == 0 || lid != c.LeftIDs[len(c.LeftIDs)-1] {
				c.LeftIDs = append(c.LeftIDs, lid)
				c.leftStart = append(c.leftStart, int32(j))
			}
		}
		c.leftStart = append(c.leftStart, int32(len(c.pairs)))
	}
	return out, nil
}

// Weights carries the two edge weights between a candidate pair.
type Weights struct {
	Pos float64 // w+ in [0, 1]
	Neg float64 // w- in [-1, 0]
}

// Computer evaluates w+ and w- between candidate pairs.
type Computer struct {
	opt     Options
	matcher *strmatch.Matcher
}

// NewComputer returns a Computer with the given options.
func NewComputer(opt Options) *Computer {
	m := strmatch.NewMatcher(opt.FracEd, opt.KEd)
	if opt.Synonyms != nil {
		m.SetSynonyms(opt.Synonyms)
	}
	return &Computer{opt: opt, matcher: m}
}

// matchScratch holds the residual lists of one w+ evaluation so a worker
// scoring many pairs reuses them. The zero value is ready to use.
type matchScratch struct {
	resA, resB []int32 // positions in a.pairs / b.pairs without an exact partner
	used       []bool  // per resB entry: already matched approximately
}

// Positive computes w+(B, B') (Equation 3): shared value pairs are counted
// by exact normalized-key intersection first; residual (unmatched) pairs are
// then matched approximately (both sides must match within the edit-distance
// threshold), greedily and at most once each.
func (cp *Computer) Positive(a, b *Candidate) float64 {
	return cp.positive(a, b, new(matchScratch))
}

func (cp *Computer) positive(a, b *Candidate, sc *matchScratch) float64 {
	if len(a.PairIDs) == 0 || len(b.PairIDs) == 0 {
		return 0
	}
	matched := intersectSorted(a.PairIDs, b.PairIDs, sc)
	if len(sc.resA) > 0 && len(sc.resB) > 0 && len(sc.resA)*len(sc.resB) <= cp.opt.MaxApproxProduct {
		matched += cp.approxResidual(a, b, sc)
	}
	return float64(matched) / float64(min(len(a.PairIDs), len(b.PairIDs)))
}

// approxResidual greedily matches residual pairs across the two tables
// using approximate matching on both the left and right halves. Each
// residual pair participates in at most one match. The outcome depends on
// visiting order; residuals come in ascending id, which is ascending pair
// key.
func (cp *Computer) approxResidual(a, b *Candidate, sc *matchScratch) int {
	sc.used = append(sc.used[:0], make([]bool, len(sc.resB))...)
	count := 0
	for _, i := range sc.resA {
		pa := &a.pairs[i]
		la, ra := pa.l(), pa.r()
		for j, k := range sc.resB {
			if sc.used[j] {
				continue
			}
			pb := &b.pairs[k]
			if cp.matcher.MatchNormalizedLen(la, pb.l(), int(pa.nl), int(pb.nl)) &&
				cp.matcher.MatchNormalizedLen(ra, pb.r(), int(pa.nr), int(pb.nr)) {
				sc.used[j] = true
				count++
				break
			}
		}
	}
	return count
}

// Negative computes w-(B, B') (Equation 4). The conflict set F(B, B') holds
// the left values present in both candidates whose right values disagree:
// some right value of one table fails to match (approximately or as a
// synonym) some right value of the other. The score is
// -max{|F|/|B|, |F|/|B'|}, always <= 0.
func (cp *Computer) Negative(a, b *Candidate) float64 {
	conflicts := 0
	cp.sharedLefts(a, b, func(i, j int) {
		if cp.rightsConflict(a.rights(i), b.rights(j)) {
			conflicts++
		}
	})
	if conflicts == 0 {
		return 0
	}
	return -float64(conflicts) / float64(min(len(a.PairIDs), len(b.PairIDs)))
}

// sharedLefts merge-joins the candidates' sorted left ids, calling fn with
// the positions of every left value both hold.
func (cp *Computer) sharedLefts(a, b *Candidate, fn func(i, j int)) {
	for i, j := 0, 0; i < len(a.LeftIDs) && j < len(b.LeftIDs); {
		switch {
		case a.LeftIDs[i] == b.LeftIDs[j]:
			fn(i, j)
			i++
			j++
		case a.LeftIDs[i] < b.LeftIDs[j]:
			i++
		default:
			j++
		}
	}
}

// rightsConflict reports whether two right-value sets disagree: true when
// any value on one side has no approximate/synonym match on the other.
func (cp *Computer) rightsConflict(rsA, rsB []normPair) bool {
	return cp.unmatched(rsA, rsB) || cp.unmatched(rsB, rsA)
}

// unmatched reports whether some right value of xs matches none of ys.
func (cp *Computer) unmatched(xs, ys []normPair) bool {
	for i := range xs {
		found := false
		for j := range ys {
			if cp.matcher.MatchNormalizedLen(xs[i].r(), ys[j].r(), int(xs[i].nr), int(ys[j].nr)) {
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

// ConflictLeftValues returns the conflict set F(B, B') as the sorted list of
// normalized left values with disagreeing right values. Used by tests.
func (cp *Computer) ConflictLeftValues(a, b *Candidate) []string {
	var out []string
	cp.sharedLefts(a, b, func(i, j int) {
		if cp.rightsConflict(a.rights(i), b.rights(j)) {
			out = append(out, a.left(i))
		}
	})
	sort.Strings(out)
	return out
}

// intersectSorted intersects two ascending id slices, returning the
// intersection size and leaving the positions unique to each side in
// sc.resA and sc.resB.
func intersectSorted(a, b []uint32, sc *matchScratch) (inter int) {
	resA, resB := sc.resA[:0], sc.resB[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			resA = append(resA, int32(i))
			i++
		default:
			resB = append(resB, int32(j))
			j++
		}
	}
	for ; i < len(a); i++ {
		resA = append(resA, int32(i))
	}
	for ; j < len(b); j++ {
		resB = append(resB, int32(j))
	}
	sc.resA, sc.resB = resA, resB
	return inter
}
