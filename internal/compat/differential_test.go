package compat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mapsynth/internal/graph"
	"mapsynth/internal/pool"
	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
	"mapsynth/internal/unionfind"
)

// precompute interns a candidate set on one worker.
func precompute(bins []*table.BinaryTable) []*Candidate {
	cands, err := PrecomputeParallel(context.Background(), bins, pool.New(1))
	if err != nil {
		panic(err) // the background context is never cancelled
	}
	return cands
}

// noisyBins builds tables over a small vocabulary chosen to hit every path
// of normalization and matching: case and punctuation variants of one value,
// near-misses within and beyond the edit threshold, multibyte letters and
// multibyte near-misses, a family of 6-rune codes one edit apart, values at
// the kEd cap (55 runes and more) with siblings 10 and 11 edits away,
// footnotes, and values that normalize to nothing. Some tables are exact
// copies of earlier ones.
func noisyBins(rng *rand.Rand, n int) []*table.BinaryTable {
	lefts := []string{
		"south korea", "South Korea", "South Korea[1]", "south  korea", "south koreaa", "north korea",
		"côte d'ivoire", "Cote d'Ivoire", "CÔTE D’IVOIRE", "american samoa", "American Samoa (US)",
		"usa", "USA", "u.s.a.", "rsa", "日本", "日本国", "a", "b", "[1]", "", "---",
		"united states virgin islands", "us virgin islands",
		"ab12cd", "ab12ce", "ab12c", "xb12cd", "ab1d2cd", "ab13ce",
		"österreich", "osterreich", "östereich", "ősterreich", "東京都庁舎前", "東京都庁舎", "京都府庁舎前",
		capValue(0), capValue(10), capValue(11), capValue(10) + "z",
	}
	rights := []string{
		"KOR", "kor", "Kor[a]", "PRK", "CIV", "civ", "ASM", "ASA", "USA", "ZAF", "JPN", "jpn",
		"republic of korea", "republic of koreá", "republic of corea", "", "[2]", "VIR", "isv",
	}
	bins := make([]*table.BinaryTable, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(6) == 0 {
			src := bins[rng.Intn(i)]
			bins = append(bins, &table.BinaryTable{ID: i, TableID: i, Domain: "d", Pairs: src.Pairs})
			continue
		}
		k := rng.Intn(14)
		ls, rs := make([]string, k), make([]string, k)
		for j := range ls {
			ls[j] = lefts[rng.Intn(len(lefts))]
			rs[j] = rights[rng.Intn(len(rights))]
		}
		bins = append(bins, table.NewBinaryTable(i, i, "d", "l", "r", ls, rs))
	}
	return bins
}

// capValue is a 57-rune value, at the kEd cap of the default threshold,
// with its first k runes changed: capValue(k) is k edits from capValue(0).
func capValue(k int) string {
	v := []byte("the quick brown fox jumps over the lazy dog near the bank")
	for i := 0; i < k; i++ {
		v[i*5] = 'q'
	}
	return string(v)
}

func differentialOptions(t *testing.T) map[string]Options {
	exact := DefaultOptions()
	exact.MaxApproxProduct = 0
	tight := DefaultOptions()
	tight.MaxApproxProduct = 6
	loose := DefaultOptions()
	loose.FracEd, loose.KEd = 0.4, 3
	syn := DefaultOptions()
	syn.Synonyms = newSynonymFeed(t)
	syn.Synonyms.AddGroup("kor", "republic of korea")
	return map[string]Options{"default": DefaultOptions(), "exact": exact, "tight": tight, "loose": loose, "synonyms": syn}
}

// TestScoresMatchOracle: w+, w- and the conflict set computed on interned
// ids equal the string implementation bit for bit, for every pair of every
// random candidate set and in both argument orders. w+ is the sharp one:
// its greedy residual matching depends on visiting order, which the ids must
// reproduce.
func TestScoresMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, opt := range differentialOptions(t) {
		cp, ocp := NewComputer(opt), newOracleComputer(opt)
		for trial := 0; trial < 12; trial++ {
			bins := noisyBins(rng, 14)
			cands, oracle := precompute(bins), oraclePrecompute(bins)
			for i := range cands {
				if cands[i].Size() != len(oracle[i].PairKeys) || len(cands[i].LeftIDs) != len(oracle[i].LeftKeys) {
					t.Fatalf("%s trial %d: candidate %d has %d pairs / %d lefts, oracle %d / %d", name, trial, i,
						cands[i].Size(), len(cands[i].LeftIDs), len(oracle[i].PairKeys), len(oracle[i].LeftKeys))
				}
				for j := range cands {
					if got, want := cp.Positive(cands[i], cands[j]), ocp.Positive(oracle[i], oracle[j]); got != want {
						t.Fatalf("%s trial %d: w+(%d,%d) = %v, oracle %v", name, trial, i, j, got, want)
					}
					if got, want := cp.Negative(cands[i], cands[j]), ocp.Negative(oracle[i], oracle[j]); got != want {
						t.Fatalf("%s trial %d: w-(%d,%d) = %v, oracle %v", name, trial, i, j, got, want)
					}
					got, want := cp.ConflictLeftValues(cands[i], cands[j]), ocp.ConflictLeftValues(oracle[i], oracle[j])
					if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s trial %d: conflict set (%d,%d) = %q, oracle %q", name, trial, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestBlockingMatchesOracle: ScanCount over posting arrays finds exactly the
// pairs the global pair-counting map found, in the same order, for
// theta 1-3 (and the clamped 0) on sets with duplicate candidates.
func TestBlockingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		bins := noisyBins(rng, 5+rng.Intn(40))
		cands, oracle := precompute(bins), oraclePrecompute(bins)
		for theta := 0; theta <= 3; theta++ {
			pos, neg := BlockedPairs(cands, theta)
			wantPos, wantNeg := oracleBlockedPairs(oracle, theta)
			if len(pos)+len(wantPos) > 0 && !reflect.DeepEqual(pos, wantPos) {
				t.Fatalf("trial %d theta %d: pos pairs %v, oracle %v", trial, theta, pos, wantPos)
			}
			if len(neg)+len(wantNeg) > 0 && !reflect.DeepEqual(neg, wantNeg) {
				t.Fatalf("trial %d theta %d: neg pairs %v, oracle %v", trial, theta, neg, wantNeg)
			}
		}
	}
}

// stopWordBins builds MaxPostingLen+1 candidates that all hold the pair
// ("common", "x") — one pair key and one left key past the cap — plus, in
// groups of four, two pairs private to the group.
func stopWordBins() []*table.BinaryTable {
	bins := make([]*table.BinaryTable, MaxPostingLen+1)
	for i := range bins {
		g := i / 4
		bins[i] = table.NewBinaryTable(i, i, "d", "l", "r",
			[]string{"common", fmt.Sprintf("g%da", g), fmt.Sprintf("g%db", g)},
			[]string{"x", "1", "2"})
	}
	return bins
}

// TestStopWordCapIsCounted: a key in more than MaxPostingLen candidates is
// skipped by both passes and shows up in BlockStats; the pairs it would have
// linked are still found through their other keys, and only those.
func TestStopWordCapIsCounted(t *testing.T) {
	bins := stopWordBins()
	cands := precompute(bins)
	n := len(bins)
	g, stats, err := BuildGraphCtx(context.Background(), cands, DefaultOptions(), pool.New(2))
	if err != nil {
		t.Fatal(err)
	}
	capped := CapStats{KeysSkipped: 1, IncrementsSkipped: n * (n - 1) / 2}
	want := BlockStats{Pair: capped, Left: capped}
	if stats != want {
		t.Errorf("BlockStats = %+v, want %+v", stats, want)
	}
	// Candidates 0..3 share g0a and g0b: a 4-clique with w+ = 1. Candidate
	// 0 and 4 share only the capped key: no edge.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if e := g.GetEdge(a, b); e == nil || e.Pos != 1 {
				t.Errorf("edge (%d,%d) = %+v, want w+ 1 through the group's own keys", a, b, e)
			}
		}
	}
	if e := g.GetEdge(0, 4); e != nil {
		t.Errorf("edge (0,4) = %+v, want none: the only shared key is capped", e)
	}
	pos, neg := BlockedPairs(cands, 2)
	wantPos, wantNeg := oracleBlockedPairs(oraclePrecompute(bins), 2)
	if !reflect.DeepEqual(pos, wantPos) || !reflect.DeepEqual(neg, wantNeg) {
		t.Errorf("blocked pairs differ from the oracle past the cap: %d/%d pairs, oracle %d/%d",
			len(pos), len(neg), len(wantPos), len(wantNeg))
	}
	// One candidate fewer and nothing is capped.
	_, stats, err = BuildGraphCtx(context.Background(), precompute(bins[:MaxPostingLen]), DefaultOptions(), pool.New(2))
	if err != nil || stats != (BlockStats{}) {
		t.Errorf("at the cap: BlockStats = %+v, err %v, want zero", stats, err)
	}
}

// insidePositiveComponents keeps the oracle edges whose endpoints are joined
// by a path of w+ > 0 edges: the only ones BuildGraph emits.
func insidePositiveComponents(n int, edges []oracleEdge) []oracleEdge {
	uf := unionfind.New(n)
	for _, e := range edges {
		if e.Pos > 0 {
			uf.Union(e.A, e.B)
		}
	}
	var out []oracleEdge
	for _, e := range edges {
		if uf.Connected(e.A, e.B) {
			out = append(out, e)
		}
	}
	return out
}

// TestBuildGraphMatchesOracle: the fused block-and-score pass yields the
// edge list of the all-pairs build restricted to its positive components —
// same pairs, same weights, sorted — for one worker and several.
func TestBuildGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dropped := 0
	for name, opt := range differentialOptions(t) {
		for trial := 0; trial < 6; trial++ {
			bins := noisyBins(rng, 10+rng.Intn(50))
			opt.ThetaOverlap = 1 + trial%3
			all := oracleBuildGraph(oraclePrecompute(bins), opt)
			want := insidePositiveComponents(len(bins), all)
			dropped += len(all) - len(want)
			for _, workers := range []int{1, 4} {
				cands, err := PrecomputeParallel(context.Background(), bins, pool.New(workers))
				if err != nil {
					t.Fatal(err)
				}
				g := BuildGraph(cands, opt, workers)
				got := g.Edges()
				if len(got) != len(want) {
					t.Fatalf("%s trial %d workers %d: %d edges, oracle %d", name, trial, workers, len(got), len(want))
				}
				for i, e := range got {
					if (oracleEdge{A: e.A, B: e.B, Pos: e.Pos, Neg: e.Neg}) != want[i] {
						t.Fatalf("%s trial %d workers %d: edge %d = %+v, oracle %+v", name, trial, workers, i, e, want[i])
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Error("no oracle edge joined two positive components: the filter went untested")
	}
}

// waitGoroutines waits for the goroutine count to fall back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestBuildGraphPreCancelled: a cancelled context does no blocking work at
// all — not even the inverted index — and returns ctx's error, a nil graph.
func TestBuildGraphPreCancelled(t *testing.T) {
	cands := precompute(noisyBins(rand.New(rand.NewSource(43)), 200))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rows atomic.Int64
	g, stats, err := buildGraph(ctx, cands, DefaultOptions(), pool.New(4), func(int) { rows.Add(1) })
	if !errors.Is(err, context.Canceled) || g != nil || stats != (BlockStats{}) {
		t.Fatalf("graph %v, stats %+v, err %v; want nil, zero, context.Canceled", g, stats, err)
	}
	if n := rows.Load(); n != 0 {
		t.Errorf("%d rows were blocked under a cancelled context, want 0", n)
	}
	waitGoroutines(t, before)
}

// TestBuildGraphCancelledMidBlocking cancels from inside a row. Rows already
// claimed may finish, but no row may start once the cancellation has been
// observed: with one worker that is none at all, with w workers at most the
// w-1 others that had passed their check.
func TestBuildGraphCancelledMidBlocking(t *testing.T) {
	cands := precompute(noisyBins(rand.New(rand.NewSource(47)), 400))
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var rows, late atomic.Int64
		g, _, err := buildGraph(ctx, cands, DefaultOptions(), pool.New(workers), func(int) {
			if ctx.Err() != nil {
				late.Add(1)
			}
			if rows.Add(1) == 20 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) || g != nil {
			t.Fatalf("workers %d: graph %v, err %v; want nil graph and context.Canceled", workers, g, err)
		}
		if n := late.Load(); n > int64(workers-1) {
			t.Errorf("workers %d: %d rows started after the cancel, want at most %d", workers, n, workers-1)
		}
		if n := rows.Load(); n >= int64(len(cands)) {
			t.Errorf("workers %d: all %d rows ran despite the cancel", workers, n)
		}
		waitGoroutines(t, before)
	}
}

// TestFromSortedEdgesContract: what BuildGraphCtx hands to
// graph.FromSortedEdges really is strictly ascending by (A, B) with A < B.
func TestFromSortedEdgesContract(t *testing.T) {
	cands := precompute(noisyBins(rand.New(rand.NewSource(53)), 120))
	opt := DefaultOptions()
	opt.ThetaOverlap = 1
	var prev graph.Edge
	for i, e := range BuildGraph(cands, opt, 4).Edges() {
		if e.A >= e.B || (i > 0 && (e.A < prev.A || e.A == prev.A && e.B <= prev.B)) {
			t.Fatalf("edge %d = %+v after %+v: not strictly ascending", i, e, prev)
		}
		prev = e
	}
}

// TestSortTouchedMatchesSort: a row's touched candidates come out of the
// bitmap in the order slices.Sort gives them, for rows dense in their span
// (read back from the bitmap) and sparse ones (sorted), and the bitmap is
// all zero again for the next row.
func TestSortTouchedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n = 5000
	sc := newRowScratch(n)
	var dense, sparse int
	for trial := 0; trial < 3000; trial++ {
		lo := rng.Intn(n)
		span := 1 + rng.Intn(n-lo)
		k := 1 + rng.Intn(min(span, 400)) // mostly dense
		if trial%2 == 1 {
			k = 1 + rng.Intn(min(span, 8)) // mostly sparse
		}
		set := make(map[int32]bool, k)
		sc.touched = sc.touched[:0]
		for len(set) < k {
			b := int32(lo + rng.Intn(span))
			if !set[b] {
				set[b] = true
				sc.touched = append(sc.touched, b)
			}
		}
		want := slices.Clone(sc.touched)
		slices.Sort(want)
		if words := int(want[k-1]>>6-want[0]>>6) + 1; words > sparseSpan*k {
			sparse++
		} else {
			dense++
		}
		sc.sortTouched()
		if !slices.Equal(sc.touched, want) {
			t.Fatalf("trial %d: sortTouched gives %v, want %v", trial, sc.touched, want)
		}
		for i, w := range sc.set {
			if w != 0 {
				t.Fatalf("trial %d: bitmap word %d left %#x", trial, i, w)
			}
		}
	}
	if dense < 100 || sparse < 100 {
		t.Fatalf("rows: %d dense, %d sparse; want both paths exercised", dense, sparse)
	}
}

// FuzzNeighbourLists: the left-value neighbour lists the list path walks
// hold exactly the other left values MatchSig accepts, checked by brute
// force over the candidate set's dictionary, under the default options,
// the loose ones (a larger fraction, a small cap) and with a synonym feed.
// The input is one table's left column, values separated by '|'.
func FuzzNeighbourLists(f *testing.F) {
	for _, s := range []string{
		"south korea|south koreaa|north korea|south korea republic",
		"ab12cd|ab12ce|ab12c|xb12cd|ab1d2cd|ab13ce|abc|abd",
		"österreich|osterreich|östereich|ősterreich|東京都庁舎前|東京都庁舎|京都府庁舎前",
		capValue(0) + "|" + capValue(10) + "|" + capValue(11) + "|" + capValue(10) + "z",
		"us virgin islands|virgin islands of the united states|us virgin island|kor|republic of korea",
		"aaaaa|aaaab|baaaa|aabaa|aaaaaa|aaaa",
	} {
		f.Add(s)
	}
	feed := strmatch.NewSynonymFeed()
	feed.AddGroup("us virgin islands", "virgin islands of the united states")
	feed.AddGroup("kor", "republic of korea", "south korea")
	opts := map[string]Options{"default": DefaultOptions(), "synonyms": DefaultOptions()}
	loose := DefaultOptions()
	loose.FracEd, loose.KEd = 0.4, 3
	opts["loose"] = loose
	syn := opts["synonyms"]
	syn.Synonyms = feed
	opts["synonyms"] = syn
	f.Fuzz(func(t *testing.T, col string) {
		vals := strings.Split(col, "|")
		if len(vals) > 64 {
			vals = vals[:64]
		}
		rights := make([]string, len(vals))
		for i := range rights {
			rights[i] = "x"
		}
		cands := precompute([]*table.BinaryTable{table.NewBinaryTable(0, 0, "d", "l", "r", vals, rights)})
		set := cands[0].set
		for name, opt := range opts {
			cp := NewComputer(opt)
			nb, err := cp.neighbours(context.Background(), set, pool.New(2))
			if err != nil {
				t.Fatal(err)
			}
			for x := range set.lefts {
				var want []uint32
				for y := range set.lefts {
					if x != y && cp.matcher.MatchSig(set.lefts[x], set.lefts[y], int(set.leftLens[x]), int(set.leftLens[y]),
						set.leftSigs[x], set.leftSigs[y]) {
						want = append(want, uint32(y))
					}
				}
				if got := nb.Of(uint32(x)); !slices.Equal(got, want) {
					t.Fatalf("%s: neighbours of %q = %v, brute force %v (dictionary %q)", name, set.lefts[x], got, want, set.lefts)
				}
			}
		}
	})
}
