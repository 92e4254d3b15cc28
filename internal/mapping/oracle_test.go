package mapping

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// oracleBuild and oracleBuildFromPairs are Build and BuildFromPairs as they
// stood when each normalized every pair itself (and BuildFromPairs
// materialized filtered copies of the tables), kept verbatim as the oracle
// for the versions that read the tables' normalized views.
func oracleBuild(id int, cands []*table.BinaryTable) *Mapping {
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
			m.Support[k]++
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

func oracleBuildFromPairs(id int, pairs []table.Pair, cands []*table.BinaryTable) *Mapping {
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
	return oracleBuild(id, filtered)
}

// TestBuildMatchesOracle compares whole Mapping values — pairs, supports,
// provenance, and the unexported lookup winners and surface forms, which
// depend on first-seen order across and within tables — on random tables
// full of case, punctuation and footnote variants of the same values.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lefts := []string{"Japan", "JAPAN", "japan", "Japan[1]", "Côte d'Ivoire", "côte d ivoire", "Peru", "peru ", "", "[x]", "U.S.A.", "u s a"}
	rights := []string{"JPN", "jpn", "Jpn.", "CIV", "civ", "PER", "per", "", "[2]", "USA", "U.S.A"}
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
		if got, want := Build(trial, cands), oracleBuild(trial, cands); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Build = %+v\noracle %+v", trial, got, want)
		}
		// An explicit list: a random subset of the tables' pairs plus one
		// pair none of them has.
		var voted []table.Pair
		for _, p := range all {
			if rng.Intn(2) == 0 {
				voted = append(voted, p)
			}
		}
		voted = append(voted, table.Pair{L: "nowhere", R: "else"})
		if got, want := BuildFromPairs(trial, voted, cands), oracleBuildFromPairs(trial, voted, cands); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: BuildFromPairs = %+v\noracle %+v", trial, got, want)
		}
	}
}
