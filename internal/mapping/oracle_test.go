package mapping

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// oracleMapping is a Mapping as Build assembled it when it kept a support
// map keyed by textnorm.PairKey and a table of lookup winners. Its methods
// are the accessors as they stood when each one normalized every stored
// pair per call; the pair index must answer exactly as they do.
type oracleMapping struct {
	pairs        []table.Pair
	support      map[string]int
	lookup       map[string]string
	surfaceR     map[string]string
	tableIDs     []int
	domains      []string
	candidateIDs []int
}

// oracleBuild and oracleBuildFromPairs are Build and BuildFromPairs as they
// stood when each normalized every pair itself (and BuildFromPairs
// materialized filtered copies of the tables), kept verbatim as the oracle
// for the versions that read the tables' normalized views.
func oracleBuild(cands []*table.BinaryTable) *oracleMapping {
	m := &oracleMapping{
		support:  make(map[string]int),
		lookup:   make(map[string]string),
		surfaceR: make(map[string]string),
	}
	surface := make(map[string]table.Pair)
	tids := make(map[int]struct{})
	doms := make(map[string]struct{})
	// support per normalized left: right -> count, to pick lookup winners.
	perLeft := make(map[string]map[string]int)
	for _, b := range cands {
		m.candidateIDs = append(m.candidateIDs, b.ID)
		tids[b.TableID] = struct{}{}
		doms[b.Domain] = struct{}{}
		seenHere := make(map[string]struct{})
		for _, p := range b.Pairs {
			nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
			if !ok {
				continue
			}
			k := textnorm.PairKey(nl, nr)
			if _, dup := seenHere[k]; dup {
				continue
			}
			seenHere[k] = struct{}{}
			if _, exists := surface[k]; !exists {
				surface[k] = p
			}
			m.support[k]++
			rm, okL := perLeft[nl]
			if !okL {
				rm = make(map[string]int, 1)
				perLeft[nl] = rm
			}
			rm[nr]++
			if _, exists := m.surfaceR[nr]; !exists {
				m.surfaceR[nr] = p.R
			}
		}
	}
	m.pairs = make([]table.Pair, 0, len(surface))
	for _, p := range surface {
		m.pairs = append(m.pairs, p)
	}
	sort.Slice(m.pairs, func(i, j int) bool {
		if m.pairs[i].L != m.pairs[j].L {
			return m.pairs[i].L < m.pairs[j].L
		}
		return m.pairs[i].R < m.pairs[j].R
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
		m.tableIDs = append(m.tableIDs, t)
	}
	sort.Ints(m.tableIDs)
	for d := range doms {
		m.domains = append(m.domains, d)
	}
	sort.Strings(m.domains)
	sort.Ints(m.candidateIDs)
	return m
}

func oracleBuildFromPairs(pairs []table.Pair, cands []*table.BinaryTable) *oracleMapping {
	keep := make(map[string]struct{}, len(pairs))
	for _, p := range pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		keep[textnorm.PairKey(nl, nr)] = struct{}{}
	}
	filtered := make([]*table.BinaryTable, 0, len(cands))
	for _, b := range cands {
		fb := &table.BinaryTable{
			ID: b.ID, TableID: b.TableID, Domain: b.Domain,
			LeftName: b.LeftName, RightName: b.RightName,
		}
		for _, p := range b.Pairs {
			nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
			if !ok {
				continue
			}
			if _, hit := keep[textnorm.PairKey(nl, nr)]; hit {
				fb.Pairs = append(fb.Pairs, p)
			}
		}
		filtered = append(filtered, fb)
	}
	return oracleBuild(filtered)
}

func (m *oracleMapping) Lookup(left string) (string, bool) {
	nr, ok := m.lookup[textnorm.Normalize(left)]
	if !ok {
		return "", false
	}
	if s, okS := m.surfaceR[nr]; okS {
		return s, true
	}
	return nr, true
}

func (m *oracleMapping) LookupAll(left string) []string {
	nl := textnorm.Normalize(left)
	if _, ok := m.lookup[nl]; !ok {
		return nil
	}
	var out []string
	if winner, ok := m.surfaceR[m.lookup[nl]]; ok {
		out = append(out, winner)
	}
	for _, p := range m.pairs {
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

func (m *oracleMapping) SupportOf(p table.Pair) int {
	nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
	if !ok {
		return 0
	}
	return m.support[textnorm.PairKey(nl, nr)]
}

func (m *oracleMapping) PairSupports() []int {
	out := make([]int, len(m.pairs))
	for i, p := range m.pairs {
		out[i] = m.SupportOf(p)
	}
	return out
}

func (m *oracleMapping) NormalizedValues() (left, right []string) {
	lset := make(map[string]struct{}, len(m.pairs))
	rset := make(map[string]struct{}, len(m.pairs))
	for _, p := range m.pairs {
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

// sameInts and sameStrings compare slices with nil equal to empty: the
// oracle and the code under test allocate empty results differently.
func sameInts(a, b []int) bool       { return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b) }
func sameStrings(a, b []string) bool { return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b) }

// checkMatchesOracle compares every observable answer of got with the
// oracle's: the stored fields, the export accessors, Lookup and LookupAll
// for each probe value, and SupportOf for each probe pair.
func checkMatchesOracle(t *testing.T, label string, got *Mapping, want *oracleMapping, probes []string, probePairs []table.Pair) {
	t.Helper()
	if len(got.Pairs) != len(want.pairs) || len(got.Pairs) > 0 && !reflect.DeepEqual(got.Pairs, want.pairs) {
		t.Fatalf("%s: Pairs = %v, oracle %v", label, got.Pairs, want.pairs)
	}
	if !sameInts(got.TableIDs, want.tableIDs) || !sameStrings(got.Domains, want.domains) || !sameInts(got.CandidateIDs, want.candidateIDs) {
		t.Fatalf("%s: provenance %v %v %v, oracle %v %v %v", label,
			got.TableIDs, got.Domains, got.CandidateIDs, want.tableIDs, want.domains, want.candidateIDs)
	}
	if g, w := got.SurfaceRights(), want.surfaceR; !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: SurfaceRights = %v, oracle %v", label, g, w)
	}
	if g, w := got.PairSupports(), want.PairSupports(); !sameInts(g, w) {
		t.Fatalf("%s: PairSupports = %v, oracle %v", label, g, w)
	}
	gl, gr := got.NormalizedValues()
	wl, wr := want.NormalizedValues()
	if !sameStrings(gl, wl) || !sameStrings(gr, wr) {
		t.Fatalf("%s: NormalizedValues = %q %q, oracle %q %q", label, gl, gr, wl, wr)
	}
	for _, v := range probes {
		gv, gok := got.Lookup(v)
		wv, wok := want.Lookup(v)
		if gv != wv || gok != wok {
			t.Fatalf("%s: Lookup(%q) = %q, %v; oracle %q, %v", label, v, gv, gok, wv, wok)
		}
		if g, w := got.LookupAll(v), want.LookupAll(v); !sameStrings(g, w) {
			t.Fatalf("%s: LookupAll(%q) = %q, oracle %q", label, v, g, w)
		}
	}
	for _, p := range probePairs {
		if g, w := got.SupportOf(p), want.SupportOf(p); g != w {
			t.Fatalf("%s: SupportOf(%v) = %d, oracle %d", label, p, g, w)
		}
	}
}

// TestBuildMatchesOracle compares the observable answers of Build,
// BuildFromPairs and Restore (fed what the first two export) with the
// oracle's, on random tables full of case, punctuation and footnote
// variants of the same values, several rights per left, support ties and
// pairs that do not normalize. Lookup winners and surface forms depend on
// first-seen order across and within tables, so every answer is probed.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lefts := []string{"Japan", "JAPAN", "japan", "Japan[1]", "Côte d'Ivoire", "côte d ivoire", "Peru", "peru ", "", "[x]", "U.S.A.", "u s a"}
	rights := []string{"JPN", "jpn", "Jpn.", "CIV", "civ", "PER", "per", "", "[2]", "USA", "U.S.A"}
	probes := append(append([]string{"nowhere"}, lefts...), rights...)
	var probePairs []table.Pair
	for _, l := range append(lefts, "nowhere") {
		for _, r := range rights {
			probePairs = append(probePairs, table.Pair{L: l, R: r})
		}
	}
	restore := func(m *Mapping) *Mapping {
		return Restore(m.ID, m.Pairs, m.PairSupports(), m.TableIDs, m.Domains, m.CandidateIDs, m.SurfaceRights())
	}
	for trial := 0; trial < 300; trial++ {
		var cands []*table.BinaryTable
		var all []table.Pair
		for ti := rng.Intn(6); ti >= 0; ti-- {
			k := rng.Intn(8)
			pairs := make([][2]string, k)
			for i := range pairs {
				pairs[i] = [2]string{lefts[rng.Intn(len(lefts))], rights[rng.Intn(len(rights))]}
			}
			b := bin(ti, rng.Intn(4), []string{"a.com", "b.com", "c.com"}[rng.Intn(3)], pairs)
			cands = append(cands, b)
			all = append(all, b.Pairs...)
		}
		got, want := Build(trial, cands), oracleBuild(cands)
		if got.ID != trial {
			t.Fatalf("trial %d: ID = %d", trial, got.ID)
		}
		checkMatchesOracle(t, "Build", got, want, probes, probePairs)
		checkMatchesOracle(t, "Restore(Build)", restore(got), want, probes, probePairs)
		// An explicit list: a random subset of the tables' pairs plus one
		// pair none of them has.
		var voted []table.Pair
		for _, p := range all {
			if rng.Intn(2) == 0 {
				voted = append(voted, p)
			}
		}
		voted = append(voted, table.Pair{L: "nowhere", R: "else"})
		got, want = BuildFromPairs(trial, voted, cands), oracleBuildFromPairs(voted, cands)
		checkMatchesOracle(t, "BuildFromPairs", got, want, probes, probePairs)
		checkMatchesOracle(t, "Restore(BuildFromPairs)", restore(got), want, probes, probePairs)
	}
}
