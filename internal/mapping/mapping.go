// Package mapping defines the synthesized mapping relationship — the final
// output of the pipeline — together with its provenance statistics used for
// curation (Section 4.3): how many raw tables and distinct web domains
// contributed to the mapping, which correlates with importance.
package mapping

import (
	"fmt"
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
	// Support counts, per normalized pair key, how many candidate tables
	// contributed the pair.
	Support map[string]int
	// TableIDs lists the distinct source table IDs that contributed.
	TableIDs []int
	// Domains lists the distinct provenance domains, sorted.
	Domains []string
	// CandidateIDs lists the BinaryTable IDs merged into this mapping.
	CandidateIDs []int

	// lookup maps each normalized left value to its best-supported
	// normalized right value.
	lookup map[string]string
	// surface maps normalized right values to a representative surface form.
	surfaceR map[string]string
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
	m := &Mapping{
		ID:       id,
		Support:  make(map[string]int),
		lookup:   make(map[string]string),
		surfaceR: make(map[string]string),
	}
	surface := make(map[string]table.Pair)
	tids := make(map[int]struct{})
	doms := make(map[string]struct{})
	// support per normalized left: right -> count, to pick lookup winners.
	perLeft := make(map[string]map[string]int)
	for _, b := range cands {
		m.CandidateIDs = append(m.CandidateIDs, b.ID)
		tids[b.TableID] = struct{}{}
		doms[b.Domain] = struct{}{}
		for _, np := range b.Norm().Pairs {
			if _, hit := keep[np.Key]; keep != nil && !hit {
				continue
			}
			p := b.Pairs[np.Src]
			if _, exists := surface[np.Key]; !exists {
				surface[np.Key] = p
			}
			m.Support[np.Key]++
			rm, okL := perLeft[np.L]
			if !okL {
				rm = make(map[string]int, 1)
				perLeft[np.L] = rm
			}
			rm[np.R]++
			if _, exists := m.surfaceR[np.R]; !exists {
				m.surfaceR[np.R] = p.R
			}
		}
	}
	m.Pairs = make([]table.Pair, 0, len(surface))
	for _, p := range surface {
		m.Pairs = append(m.Pairs, p)
	}
	sort.Slice(m.Pairs, func(i, j int) bool {
		if m.Pairs[i].L != m.Pairs[j].L {
			return m.Pairs[i].L < m.Pairs[j].L
		}
		return m.Pairs[i].R < m.Pairs[j].R
	})
	for nl, rm := range perLeft {
		bestR, bestC := "", -1
		// Deterministic winner: highest count, then lexicographic.
		rs := make([]string, 0, len(rm))
		for r := range rm {
			rs = append(rs, r)
		}
		sort.Strings(rs)
		for _, r := range rs {
			if rm[r] > bestC {
				bestR, bestC = r, rm[r]
			}
		}
		m.lookup[nl] = bestR
	}
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
// the number of candidate tables that contributed Pairs[i]. Persistence
// formats store this slice instead of the keyed Support map.
func (m *Mapping) PairSupports() []int {
	out := make([]int, len(m.Pairs))
	for i, p := range m.Pairs {
		out[i] = m.SupportOf(p)
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
// The internal lookup table is re-derived from the supports using the same
// deterministic winner rule as Build (highest support, then lexicographically
// smallest right value), so a restored mapping answers Lookup/LookupAll
// identically to the original.
func Restore(id int, pairs []table.Pair, pairSupports []int,
	tableIDs []int, domains []string, candidateIDs []int,
	surfaceR map[string]string) *Mapping {
	m := &Mapping{
		ID:           id,
		Pairs:        pairs,
		Support:      make(map[string]int, len(pairs)),
		TableIDs:     tableIDs,
		Domains:      domains,
		CandidateIDs: candidateIDs,
		lookup:       make(map[string]string),
		surfaceR:     surfaceR,
	}
	if m.surfaceR == nil {
		m.surfaceR = make(map[string]string)
	}
	perLeft := make(map[string]map[string]int)
	for i, p := range pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		sup := 0
		if i < len(pairSupports) {
			sup = pairSupports[i]
		}
		m.Support[textnorm.PairKey(nl, nr)] = sup
		rm, okL := perLeft[nl]
		if !okL {
			rm = make(map[string]int, 1)
			perLeft[nl] = rm
		}
		rm[nr] = sup
	}
	for nl, rm := range perLeft {
		bestR, bestC := "", -1
		rs := make([]string, 0, len(rm))
		for r := range rm {
			rs = append(rs, r)
		}
		sort.Strings(rs)
		for _, r := range rs {
			if rm[r] > bestC {
				bestR, bestC = r, rm[r]
			}
		}
		m.lookup[nl] = bestR
	}
	return m
}

// NormalizedValues returns the distinct normalized left and right values of
// the mapping's pairs, each sorted ascending — the exact value sets
// containment queries test against. The v2 snapshot writer lays out value
// tables, filters and postings from them, so an image answers membership
// exactly as the mapping would.
func (m *Mapping) NormalizedValues() (left, right []string) {
	lset := make(map[string]struct{}, len(m.Pairs))
	rset := make(map[string]struct{}, len(m.Pairs))
	for _, p := range m.Pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		lset[nl] = struct{}{}
		rset[nr] = struct{}{}
	}
	left = make([]string, 0, len(lset))
	for v := range lset {
		left = append(left, v)
	}
	right = make([]string, 0, len(rset))
	for v := range rset {
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
	return m.Support[textnorm.PairKey(nl, nr)]
}

// NumTables returns the number of distinct source tables.
func (m *Mapping) NumTables() int { return len(m.TableIDs) }

// NumDomains returns the number of distinct provenance domains — the
// paper's primary popularity signal for curation.
func (m *Mapping) NumDomains() int { return len(m.Domains) }

// Lookup maps a left value (any surface form) to the best-supported right
// value's representative surface form.
func (m *Mapping) Lookup(left string) (string, bool) {
	nr, ok := m.lookup[textnorm.Normalize(left)]
	if !ok {
		return "", false
	}
	if s, okS := m.surfaceR[nr]; okS {
		return s, true
	}
	return nr, true
}

// LookupAll returns every right surface form recorded for the left value,
// majority winner first. Synthesized mappings may legitimately carry several
// synonymous right mentions for one left value (Table 6 of the paper);
// applications like auto-join try all of them.
func (m *Mapping) LookupAll(left string) []string {
	nl := textnorm.Normalize(left)
	if _, ok := m.lookup[nl]; !ok {
		return nil
	}
	var out []string
	if winner, ok := m.surfaceR[m.lookup[nl]]; ok {
		out = append(out, winner)
	}
	for _, p := range m.Pairs {
		pl, pr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok || pl != nl {
			continue
		}
		if pr == m.lookup[nl] {
			continue // majority winner already included
		}
		out = append(out, p.R)
	}
	return out
}

// ContainsLeft reports whether the mapping knows the left value.
func (m *Mapping) ContainsLeft(left string) bool {
	_, ok := m.lookup[textnorm.Normalize(left)]
	return ok
}

// RightValues returns the distinct normalized right values.
func (m *Mapping) RightValues() []string {
	set := make(map[string]struct{})
	for _, p := range m.Pairs {
		set[textnorm.Normalize(p.R)] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
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
