package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// oracleResolve is Resolve as it stood before the resolver kept state
// between rounds: every round re-normalizes every pair of every kept table,
// regroups them and recounts all conflicts from scratch. Kept verbatim as
// the oracle — including its own textnorm calls, so it also checks the
// normalized view Resolve now reads.
func oracleResolve(cands []*table.BinaryTable, opt Options) (kept, removed []*table.BinaryTable) {
	matcher := strmatch.NewMatcher(opt.FracEd, opt.KEd)
	if opt.Synonyms != nil {
		matcher.SetSynonyms(opt.Synonyms)
	}
	kept = append(kept, cands...)
	for {
		worst, conflicts := oracleMostConflictingTable(kept, matcher)
		if conflicts == 0 {
			break
		}
		removed = append(removed, kept[worst])
		kept = append(kept[:worst], kept[worst+1:]...)
	}
	return kept, removed
}

func oracleMostConflictingTable(kept []*table.BinaryTable, matcher *strmatch.Matcher) (int, int) {
	// Group the distinct pairs of the union by normalized left value.
	type pairInfo struct {
		nr string
	}
	byLeft := make(map[string][]pairInfo)
	seen := make(map[string]struct{})
	for _, b := range kept {
		for _, p := range b.Pairs {
			nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
			if !ok {
				continue
			}
			k := textnorm.PairKey(nl, nr)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			byLeft[nl] = append(byLeft[nl], pairInfo{nr: nr})
		}
	}
	// cntV per normalized pair key.
	cntV := make(map[string]int)
	for nl, infos := range byLeft {
		if len(infos) < 2 {
			continue
		}
		for i := range infos {
			c := 0
			for j := range infos {
				if i == j {
					continue
				}
				if !matcher.MatchNormalized(infos[i].nr, infos[j].nr) {
					c++
				}
			}
			if c > 0 {
				cntV[textnorm.PairKey(nl, infos[i].nr)] = c
			}
		}
	}
	if len(cntV) == 0 {
		return -1, 0
	}
	bestIdx, bestCnt, bestSize := -1, 0, 0
	for i, b := range kept {
		c := 0
		for _, p := range b.Pairs {
			nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
			if !ok {
				continue
			}
			if v := cntV[textnorm.PairKey(nl, nr)]; v > c {
				c = v
			}
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
		case c == bestCnt && b.Size() == bestSize && bestIdx >= 0 && b.ID > kept[bestIdx].ID:
			better = true
		}
		if better {
			bestIdx, bestCnt, bestSize = i, c, b.Size()
		}
	}
	return bestIdx, bestCnt
}

// tiedPartition builds a partition designed to tie: few left values, few
// right values (some approximately equal, some equal only after
// normalization, some empty or all footnote), tables of few distinct sizes,
// repeated IDs, and exact copies of earlier tables.
func tiedPartition(rng *rand.Rand) []*table.BinaryTable {
	lefts := []string{"alpha", "Alpha", "alpha[1]", "beta", "gamma", "delta", "", "[2]", "épsilon"}
	rights := []string{"paris charles de gaulle", "Paris Charles-de-Gaulle", "paris charles de gaul",
		"A", "a", "B", "C", "", "[note]", "Ünïcode", "ünïcode"}
	n := 1 + rng.Intn(9)
	tables := make([]*table.BinaryTable, 0, n)
	for ti := 0; ti < n; ti++ {
		id := ti
		if rng.Intn(3) == 0 {
			id = rng.Intn(n) // IDs repeat: the last tie-break falls to position
		}
		if ti > 0 && rng.Intn(5) == 0 {
			src := tables[rng.Intn(ti)]
			tables = append(tables, &table.BinaryTable{ID: id, TableID: ti, Domain: "d", Pairs: src.Pairs})
			continue
		}
		k := 1 + rng.Intn(4)
		ls, rs := make([]string, k), make([]string, k)
		for j := range ls {
			ls[j] = lefts[rng.Intn(len(lefts))]
			rs[j] = rights[rng.Intn(len(rights))]
		}
		tables = append(tables, table.NewBinaryTable(id, ti, "d", "l", "r", ls, rs))
	}
	return tables
}

func describe(ts []*table.BinaryTable) string {
	s := ""
	for _, b := range ts {
		s += fmt.Sprintf(" #%d/t%d%v", b.ID, b.TableID, b.Pairs)
	}
	return s
}

// TestResolveMatchesOracle: the stateful resolver keeps the same tables and
// removes the same tables in the same order as the recompute-every-round
// original, on partitions full of ties in conflict count, size and ID.
func TestResolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	syn := DefaultOptions()
	syn.Synonyms = strmatch.NewSynonymFeed()
	syn.Synonyms.AddGroup("a", "b")
	loose := Options{FracEd: 0.4, KEd: 3}
	same := func(x, y []*table.BinaryTable) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	removals := 0
	for trial := 0; trial < 600; trial++ {
		tables := tiedPartition(rng)
		opt := []Options{DefaultOptions(), syn, loose}[trial%3]
		kept, removed := Resolve(tables, opt)
		wantKept, wantRemoved := oracleResolve(tables, opt)
		if !same(kept, wantKept) || !same(removed, wantRemoved) {
			t.Fatalf("trial %d on%s:\nkept   %s\noracle %s\nremoved%s\noracle %s", trial, describe(tables),
				describe(kept), describe(wantKept), describe(removed), describe(wantRemoved))
		}
		removals += len(removed)
	}
	if removals < 300 {
		t.Errorf("only %d removals in 600 partitions: the generator no longer produces conflicts", removals)
	}
}
