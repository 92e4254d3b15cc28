package fd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

func TestExactFD(t *testing.T) {
	res := Check(
		[]string{"Chicago", "San Francisco", "Los Angeles", "Houston"},
		[]string{"Illinois", "California", "California", "Texas"})
	if res.Ratio != 1 {
		t.Errorf("Ratio = %v, want 1", res.Ratio)
	}
	if !res.Holds(0.95) {
		t.Error("exact FD should hold at theta 0.95")
	}
	if res.DistinctLeft != 4 || res.DistinctRight != 3 {
		t.Errorf("distinct counts: %d, %d", res.DistinctLeft, res.DistinctRight)
	}
}

func TestApproximateFDPortland(t *testing.T) {
	// Definition 2: "Portland" maps to both Oregon and Maine; with enough
	// clean rows the 95%-approximate FD still holds.
	left := []string{"Portland", "Portland"}
	right := []string{"Oregon", "Maine"}
	for i := 0; i < 38; i++ {
		left = append(left, "City"+string(rune('A'+i%26))+string(rune('0'+i/26)))
		right = append(right, "State"+string(rune('A'+i%26)))
	}
	res := Check(left, right)
	if !res.Holds(0.95) {
		t.Errorf("approximate FD should hold: ratio=%v keeping=%d rows=%d", res.Ratio, res.Keeping, res.Rows)
	}
	if res.Holds(0.99) {
		t.Error("FD should not hold at theta 0.99")
	}
}

func TestNonFunctionalPair(t *testing.T) {
	res := Check(
		[]string{"a", "a", "b", "b"},
		[]string{"1", "2", "3", "4"})
	if res.Ratio != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", res.Ratio)
	}
}

func TestNormalizationInsideCheck(t *testing.T) {
	// Case variants of the same left value must be recognized as one.
	res := Check(
		[]string{"USA", "usa ", "U.S.A"},
		[]string{"Washington", "Washington", "Washington"})
	if res.DistinctLeft != 2 {
		// "usa" and "u s a" differ after normalization; footnote/punct only
		// collapses USA and "usa ".
		t.Errorf("DistinctLeft = %d, want 2", res.DistinctLeft)
	}
	if res.Ratio != 1 {
		t.Errorf("Ratio = %v, want 1", res.Ratio)
	}
}

func TestEmptyInput(t *testing.T) {
	res := Check(nil, nil)
	if res.Rows != 0 || res.Ratio != 1 {
		t.Errorf("empty input: %+v", res)
	}
	res = Check([]string{"", " ", "--"}, []string{"a", "b", "c"})
	if res.Rows != 0 {
		t.Errorf("all-empty lefts should give 0 rows, got %d", res.Rows)
	}
}

func TestCheckPairsAgreesWithCheck(t *testing.T) {
	f := func(ls, rs []string) bool {
		n := len(ls)
		if len(rs) < n {
			n = len(rs)
		}
		if n > 25 {
			return true
		}
		pairs := make([]table.Pair, n)
		for i := 0; i < n; i++ {
			pairs[i] = table.Pair{L: ls[i], R: rs[i]}
		}
		a := Check(ls[:n], rs[:n])
		b := CheckPairs(pairs)
		return a.Ratio == b.Ratio && a.Rows == b.Rows
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatioBounds(t *testing.T) {
	f := func(ls, rs []string) bool {
		n := len(ls)
		if len(rs) < n {
			n = len(rs)
		}
		if n > 25 {
			return true
		}
		res := Check(ls[:n], rs[:n])
		return res.Ratio >= 0 && res.Ratio <= 1 && res.Keeping <= res.Rows
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCheckIDsMatchesCheck runs the id-based check against Check on random
// column pairs: duplicate rows, cells that normalize to empty (on the left
// they drop the row, on the right they are a value), unequal column
// lengths, non-ASCII and case variants of one value. One Checker serves
// every check, with dictionaries of varying size, as an extraction worker
// reuses it across tables.
func TestCheckIDsMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	vocab := []string{"", " ", "--", "[1]", "Japan", "japan", "JAPAN[2]", "Côte d'Ivoire",
		"CÔTE D IVOIRE", "日本", "東京", "Österreich", "osterreich", "a", "b", "c", "1", "2"}
	var c Checker
	for trial := 0; trial < 3000; trial++ {
		if trial == 1500 {
			c.stamp = math.MaxUint32 - 2 // the stamp wraps in a few checks
		}
		words := vocab[:1+rng.Intn(len(vocab))]
		col := func() []string {
			out := make([]string, rng.Intn(30))
			for i := range out {
				out[i] = words[rng.Intn(len(words))]
			}
			return out
		}
		left, right := col(), col()
		dict := map[string]int32{"": 0}
		intern := func(vs []string) []int32 {
			ids := make([]int32, len(vs))
			for i, v := range vs {
				nv := textnorm.Normalize(v)
				id, ok := dict[nv]
				if !ok {
					id = int32(len(dict))
					dict[nv] = id
				}
				ids[i] = id
			}
			return ids
		}
		li, ri := intern(left), intern(right)
		if got, want := c.CheckIDs(li, ri, len(dict)), Check(left, right); got != want {
			t.Fatalf("CheckIDs = %+v, Check = %+v for %q -> %q", got, want, left, right)
		}
	}
}
