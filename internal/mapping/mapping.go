// Package mapping defines the synthesized mapping relationship — the final
// output of the pipeline — together with its provenance statistics used for
// curation (Section 4.3): how many raw tables and distinct web domains
// contributed to the mapping, which correlates with importance.
package mapping

import (
	"fmt"
	"math"
	"sort"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// Mapping is one synthesized mapping relationship: the union of value pairs
// from all candidate tables in one partition, after conflict resolution.
type Mapping struct {
	// ID identifies the mapping among all synthesized outputs.
	ID int
	// Pairs holds the distinct value pairs (one representative surface form
	// per normalized pair), sorted for determinism.
	Pairs []table.Pair
	// TableIDs lists the distinct source table IDs that contributed.
	TableIDs []int
	// Domains lists the distinct provenance domains, sorted.
	Domains []string
	// CandidateIDs lists the BinaryTable IDs merged into this mapping.
	CandidateIDs []int

	// surface maps normalized right values to a representative surface form.
	surfaceR map[string]string
	// idx indexes Pairs by normalized value; every query-time accessor
	// reads it instead of normalizing stored pairs.
	idx pairIndex
}

// pairIndex is a mapping's pairs indexed by normalized value. Build and
// Restore derive it once, from normalized forms they already hold, so
// answering a query never normalizes a stored pair.
type pairIndex struct {
	// supports[i] is the number of candidate tables that contributed
	// Pairs[i]; 0 for a pair whose left value does not normalize.
	supports []int32
	// lefts maps each normalized left value to its entry in entries.
	lefts   map[string]int32
	entries []leftEntry
	// rights maps each normalized right value to the position of the first
	// pair holding it.
	rights map[string]int32
	// otherPos and otherR hold, for lefts with more than one right, the
	// positions and normalized rights of the non-winning pairs: one run per
	// left, in Pairs order.
	otherPos []int32
	otherR   []string
}

// leftEntry is what the index records for one normalized left value.
type leftEntry struct {
	// win is the lookup winner: the normalized right with the highest
	// support, then the lexicographically smallest.
	win      string
	winPos   int32 // position of the winning pair
	firstPos int32 // position of the first pair with this left
	off, n   int32 // the left's run in otherPos/otherR
}

// normPair is one stored pair with its normalized values and support: what
// the pair index is derived from. l is "" for a pair whose left value does
// not normalize, which the index leaves out.
type normPair struct {
	p    table.Pair
	l, r string
	sup  int
}

// newPairIndex derives the index of the pairs norm describes, in Pairs
// order. Each left's winner is its highest-supported right, ties going to
// the lexicographically smallest.
func newPairIndex(norm []normPair) pairIndex {
	x := pairIndex{
		// Most lefts have one right, so lefts are sized for one per pair;
		// many rights are shared, so rights grow as needed.
		supports: make([]int32, len(norm)),
		lefts:    make(map[string]int32, len(norm)),
		entries:  make([]leftEntry, 0, len(norm)),
		rights:   make(map[string]int32),
	}
	more := 0
	for i, np := range norm {
		if np.l == "" {
			continue
		}
		sup := int32(min(max(np.sup, 0), math.MaxInt32))
		x.supports[i] = sup
		if _, seen := x.rights[np.r]; !seen {
			x.rights[np.r] = int32(i)
		}
		k, seen := x.lefts[np.l]
		if !seen {
			x.lefts[np.l] = int32(len(x.entries))
			x.entries = append(x.entries, leftEntry{win: np.r, winPos: int32(i), firstPos: int32(i)})
			continue
		}
		// n counts the left's further pairs until the runs are laid out.
		e := &x.entries[k]
		e.n++
		more++
		if w := x.supports[e.winPos]; sup > w || sup == w && np.r < e.win {
			e.win, e.winPos = np.r, int32(i)
		}
	}
	if more == 0 {
		return x
	}
	// A left with n further pairs has at most n non-winning ones.
	off := int32(0)
	for k := range x.entries {
		e := &x.entries[k]
		e.off, off, e.n = off, off+e.n, 0
	}
	x.otherPos, x.otherR = make([]int32, off), make([]string, off)
	for i, np := range norm {
		if np.l == "" {
			continue
		}
		e := &x.entries[x.lefts[np.l]]
		if np.r == e.win {
			continue
		}
		x.otherPos[e.off+e.n], x.otherR[e.off+e.n] = int32(i), np.r
		e.n++
	}
	return x
}

// Build assembles a Mapping from the candidate tables of one partition.
// Duplicate pairs (after normalization) are merged, keeping the first-seen
// surface form; support counts one per contributing candidate table. The
// normalized pairs are read from the tables' views (table.BinaryTable.Norm),
// not recomputed.
func Build(id int, cands []*table.BinaryTable) *Mapping {
	return build(id, cands, nil)
}

// build is Build restricted to the normalized pair keys in keep; a nil keep
// admits every pair.
func build(id int, cands []*table.BinaryTable, keep map[string]struct{}) *Mapping {
	m := &Mapping{ID: id, surfaceR: make(map[string]string)}
	tids := make(map[int]struct{})
	doms := make(map[string]struct{})
	// One entry per distinct normalized pair, found by its key. The tables
	// of a partition share most of their pairs, so the largest one is the
	// size hint.
	largest := 0
	for _, b := range cands {
		largest = max(largest, len(b.Norm().Pairs))
	}
	at := make(map[string]int, largest)
	norm := make([]normPair, 0, largest)
	for _, b := range cands {
		m.CandidateIDs = append(m.CandidateIDs, b.ID)
		tids[b.TableID] = struct{}{}
		doms[b.Domain] = struct{}{}
		for _, np := range b.Norm().Pairs {
			if _, hit := keep[np.Key]; keep != nil && !hit {
				continue
			}
			if k, seen := at[np.Key]; seen {
				norm[k].sup++
				continue
			}
			at[np.Key] = len(norm)
			p := b.Pairs[np.Src]
			norm = append(norm, normPair{p: p, l: np.L, r: np.R, sup: 1})
			if _, exists := m.surfaceR[np.R]; !exists {
				m.surfaceR[np.R] = p.R
			}
		}
	}
	// Distinct normalized pairs have distinct surface forms, so this order
	// is total.
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].p.L != norm[j].p.L {
			return norm[i].p.L < norm[j].p.L
		}
		return norm[i].p.R < norm[j].p.R
	})
	m.Pairs = make([]table.Pair, len(norm))
	for i := range norm {
		m.Pairs[i] = norm[i].p
	}
	m.idx = newPairIndex(norm)
	for t := range tids {
		m.TableIDs = append(m.TableIDs, t)
	}
	sort.Ints(m.TableIDs)
	for d := range doms {
		m.Domains = append(m.Domains, d)
	}
	sort.Strings(m.Domains)
	sort.Ints(m.CandidateIDs)
	return m
}

// BuildFromPairs assembles a Mapping from an explicit pair list (e.g. the
// output of majority-vote conflict resolution) while taking provenance
// statistics (table IDs, domains, candidate IDs) from the contributing
// candidate tables. Only pairs in the explicit list survive.
func BuildFromPairs(id int, pairs []table.Pair, cands []*table.BinaryTable) *Mapping {
	keep := make(map[string]struct{}, len(pairs))
	for _, p := range pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		keep[textnorm.PairKey(nl, nr)] = struct{}{}
	}
	return build(id, cands, keep)
}

// PairSupports returns the support counts aligned with Pairs: element i is
// the number of candidate tables that contributed Pairs[i].
func (m *Mapping) PairSupports() []int {
	out := make([]int, len(m.idx.supports))
	for i, s := range m.idx.supports {
		out[i] = int(s)
	}
	return out
}

// SurfaceRights returns a copy of the representative surface form recorded
// for each normalized right value. Persistence formats must store this map:
// it is keyed by first-seen order during Build, which cannot be recovered
// from the sorted Pairs slice alone.
func (m *Mapping) SurfaceRights() map[string]string {
	out := make(map[string]string, len(m.surfaceR))
	for k, v := range m.surfaceR {
		out[k] = v
	}
	return out
}

// Restore reconstructs a Mapping from persisted fields, the inverse of the
// export accessors above. pairSupports must align with pairs; tableIDs,
// domains and candidateIDs are stored sorted by Build and are kept as given.
// The pair index is re-derived with the same winner rule as Build, so a
// restored mapping answers every query identically to the original. Pairs
// are expected distinct after normalization, as Build leaves them; supports
// are clamped to [0, math.MaxInt32].
func Restore(id int, pairs []table.Pair, pairSupports []int,
	tableIDs []int, domains []string, candidateIDs []int,
	surfaceR map[string]string) *Mapping {
	m := &Mapping{
		ID:           id,
		Pairs:        pairs,
		TableIDs:     tableIDs,
		Domains:      domains,
		CandidateIDs: candidateIDs,
		surfaceR:     surfaceR,
	}
	if m.surfaceR == nil {
		m.surfaceR = make(map[string]string)
	}
	norm := make([]normPair, len(pairs))
	for i, p := range pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		norm[i] = normPair{l: nl, r: nr}
		if i < len(pairSupports) {
			norm[i].sup = pairSupports[i]
		}
	}
	m.idx = newPairIndex(norm)
	return m
}

// NormalizedValues returns the distinct normalized left and right values of
// the mapping's pairs, each sorted ascending — the exact value sets
// containment queries test against. The v2 snapshot writer lays out value
// tables, filters and postings from them, so an image answers membership
// exactly as the mapping would.
func (m *Mapping) NormalizedValues() (left, right []string) {
	left = make([]string, 0, len(m.idx.lefts))
	for v := range m.idx.lefts {
		left = append(left, v)
	}
	right = make([]string, 0, len(m.idx.rights))
	for v := range m.idx.rights {
		right = append(right, v)
	}
	sort.Strings(left)
	sort.Strings(right)
	return left, right
}

// Size returns the number of distinct pairs.
func (m *Mapping) Size() int { return len(m.Pairs) }

// SupportOf returns the number of candidate tables that contributed the
// given pair (matched by normalized value), or 0 if the pair is unknown.
func (m *Mapping) SupportOf(p table.Pair) int {
	nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
	if !ok {
		return 0
	}
	k, ok := m.idx.lefts[nl]
	if !ok {
		return 0
	}
	e := &m.idx.entries[k]
	if nr == e.win {
		return int(m.idx.supports[e.winPos])
	}
	for j := e.off; j < e.off+e.n; j++ {
		if m.idx.otherR[j] == nr {
			return int(m.idx.supports[m.idx.otherPos[j]])
		}
	}
	return 0
}

// NumTables returns the number of distinct source tables.
func (m *Mapping) NumTables() int { return len(m.TableIDs) }

// NumDomains returns the number of distinct provenance domains — the
// paper's primary popularity signal for curation.
func (m *Mapping) NumDomains() int { return len(m.Domains) }

// Lookup maps a left value (any surface form) to the best-supported right
// value's representative surface form.
func (m *Mapping) Lookup(left string) (string, bool) {
	k, ok := m.idx.lefts[textnorm.Normalize(left)]
	if !ok {
		return "", false
	}
	win := m.idx.entries[k].win
	if s, okS := m.surfaceR[win]; okS {
		return s, true
	}
	return win, true
}

// LookupAll returns every right surface form recorded for the left value,
// majority winner first. Synthesized mappings may legitimately carry several
// synonymous right mentions for one left value (Table 6 of the paper);
// applications like auto-join try all of them.
func (m *Mapping) LookupAll(left string) []string {
	k, ok := m.idx.lefts[textnorm.Normalize(left)]
	if !ok {
		return nil
	}
	e := &m.idx.entries[k]
	out := make([]string, 0, 1+e.n)
	if winner, ok := m.surfaceR[e.win]; ok {
		out = append(out, winner)
	}
	for _, i := range m.idx.otherPos[e.off : e.off+e.n] {
		out = append(out, m.Pairs[i].R)
	}
	return out
}

// Rights returns the normalized right values recorded for the normalized
// left value nl: the majority winner, and the others in Pairs order. ok is
// false when no pair has left nl. The caller must not modify others.
func (m *Mapping) Rights(nl string) (winner string, others []string, ok bool) {
	k, ok := m.idx.lefts[nl]
	if !ok {
		return "", nil, false
	}
	e := &m.idx.entries[k]
	return e.win, m.idx.otherR[e.off : e.off+e.n], true
}

// FirstWithLeft returns the first pair, in Pairs order, whose normalized
// left value is nl.
func (m *Mapping) FirstWithLeft(nl string) (table.Pair, bool) {
	k, ok := m.idx.lefts[nl]
	if !ok {
		return table.Pair{}, false
	}
	return m.Pairs[m.idx.entries[k].firstPos], true
}

// FirstWithRight returns the first pair, in Pairs order, whose normalized
// right value is nr, among the pairs whose left value normalizes.
func (m *Mapping) FirstWithRight(nr string) (table.Pair, bool) {
	i, ok := m.idx.rights[nr]
	if !ok {
		return table.Pair{}, false
	}
	return m.Pairs[i], true
}

// DirectionStats describes how functional each direction of the mapping is,
// distinguishing 1:1 from N:1 relationships.
type DirectionStats struct {
	// LeftToRight is the fraction of distinct left values mapping to a
	// single right value.
	LeftToRight float64
	// RightToLeft is the fraction of distinct right values mapped from a
	// single left value.
	RightToLeft float64
}

// Directions computes DirectionStats over the normalized pairs.
func (m *Mapping) Directions() DirectionStats {
	l2r := make(map[string]map[string]struct{})
	r2l := make(map[string]map[string]struct{})
	for _, p := range m.Pairs {
		nl, nr := textnorm.Normalize(p.L), textnorm.Normalize(p.R)
		if l2r[nl] == nil {
			l2r[nl] = make(map[string]struct{})
		}
		l2r[nl][nr] = struct{}{}
		if r2l[nr] == nil {
			r2l[nr] = make(map[string]struct{})
		}
		r2l[nr][nl] = struct{}{}
	}
	var ds DirectionStats
	if len(l2r) > 0 {
		single := 0
		for _, rs := range l2r {
			if len(rs) == 1 {
				single++
			}
		}
		ds.LeftToRight = float64(single) / float64(len(l2r))
	}
	if len(r2l) > 0 {
		single := 0
		for _, ls := range r2l {
			if len(ls) == 1 {
				single++
			}
		}
		ds.RightToLeft = float64(single) / float64(len(r2l))
	}
	return ds
}

// String renders a short description.
func (m *Mapping) String() string {
	return fmt.Sprintf("mapping#%d(%d pairs, %d tables, %d domains)",
		m.ID, len(m.Pairs), len(m.TableIDs), len(m.Domains))
}
