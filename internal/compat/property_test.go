package compat

import (
	"fmt"
	"math/rand"
	"testing"

	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
)

type synFeed = strmatch.SynonymFeed

func newFeed() *synFeed { return strmatch.NewSynonymFeed() }

// randomCandidates builds candidate tables over a shared small vocabulary so
// overlaps and conflicts actually occur.
func randomCandidates(rng *rand.Rand, n int) []*Candidate {
	vocabL := make([]string, 12)
	vocabR := make([]string, 12)
	for i := range vocabL {
		vocabL[i] = fmt.Sprintf("left %c", 'a'+i)
		vocabR[i] = fmt.Sprintf("R%d", i)
	}
	bins := make([]*table.BinaryTable, n)
	for i := 0; i < n; i++ {
		k := 3 + rng.Intn(8)
		ls := make([]string, k)
		rs := make([]string, k)
		for j := 0; j < k; j++ {
			ls[j] = vocabL[rng.Intn(len(vocabL))]
			rs[j] = vocabR[rng.Intn(len(vocabR))]
		}
		bins[i] = table.NewBinaryTable(i, i, "d", "l", "r", ls, rs)
	}
	return precompute(bins)
}

// TestWeightInvariants checks, over random candidate pairs, the structural
// properties the synthesis formulation relies on: w+ ∈ [0, 1], w- ∈ [-1, 0],
// symmetry, identity (w+(B, B) = 1), and that a pair with positive conflict
// count has strictly negative w-.
func TestWeightInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cp := NewComputer(DefaultOptions())
	for trial := 0; trial < 30; trial++ {
		cands := randomCandidates(rng, 8)
		for i := range cands {
			if cands[i].Size() == 0 {
				continue
			}
			if got := cp.Positive(cands[i], cands[i]); got != 1 {
				t.Fatalf("w+(B,B) = %v, want 1", got)
			}
			for j := i + 1; j < len(cands); j++ {
				a, b := cands[i], cands[j]
				pos := cp.Positive(a, b)
				if pos < 0 || pos > 1+1e-9 {
					t.Fatalf("w+ out of range: %v", pos)
				}
				if pos != cp.Positive(b, a) {
					t.Fatalf("w+ asymmetric")
				}
				neg := cp.Negative(a, b)
				if neg > 0 || neg < -1-1e-9 {
					t.Fatalf("w- out of range: %v", neg)
				}
				if neg != cp.Negative(b, a) {
					t.Fatalf("w- asymmetric")
				}
				conflicts := cp.ConflictLeftValues(a, b)
				if (len(conflicts) > 0) != (neg < 0) {
					t.Fatalf("conflict set size %d inconsistent with w- %v", len(conflicts), neg)
				}
			}
		}
	}
}

// TestBlockingSoundness: every pair that genuinely shares >= theta exact
// normalized value pairs must be produced by the blocker (no false
// negatives; false positives are impossible by construction).
func TestBlockingSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		cands := randomCandidates(rng, 10)
		theta := 1 + rng.Intn(3)
		pos, _ := BlockedPairs(cands, theta)
		blocked := make(map[[2]int]bool, len(pos))
		for _, p := range pos {
			blocked[p] = true
		}
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				inter := intersectSorted(cands[i].PairIDs, cands[j].PairIDs, new(matchScratch))
				if inter >= theta && !blocked[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) shares %d >= %d keys but was not blocked",
						trial, i, j, inter, theta)
				}
				if inter < theta && blocked[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) shares %d < %d keys but was blocked",
						trial, i, j, inter, theta)
				}
			}
		}
	}
}

// TestSynonymsSuppressConflicts: a synonym feed must both lift w+ and
// remove conflicts caused by synonymous right values (Section 4.1,
// "Synonyms" and the conflict-set definition).
func TestSynonymsSuppressConflicts(t *testing.T) {
	a := table.NewBinaryTable(0, 0, "d", "l", "r",
		[]string{"k1", "k2", "k3", "k4"},
		[]string{"US Virgin Islands", "v2", "v3", "v4"})
	b := table.NewBinaryTable(1, 1, "d", "l", "r",
		[]string{"k1", "k2", "k3", "k4"},
		[]string{"Virgin Islands of the United States", "v2", "v3", "v4"})
	cands := precompute([]*table.BinaryTable{a, b})

	plain := NewComputer(DefaultOptions())
	if got := plain.Negative(cands[0], cands[1]); got >= 0 {
		t.Fatalf("without synonyms, k1 should conflict: w- = %v", got)
	}

	opt := DefaultOptions()
	feed := newSynonymFeed(t)
	opt.Synonyms = feed
	withSyn := NewComputer(opt)
	if got := withSyn.Negative(cands[0], cands[1]); got != 0 {
		t.Errorf("with synonyms, conflict should vanish: w- = %v", got)
	}
	if got := withSyn.Positive(cands[0], cands[1]); got != 1 {
		t.Errorf("with synonyms, w+ should be 1: %v", got)
	}
}

func newSynonymFeed(t *testing.T) *synFeed {
	t.Helper()
	f := newFeed()
	f.AddGroup("us virgin islands", "virgin islands of the united states")
	return f
}
