package compat

import (
	"math"
	"testing"

	"mapsynth/internal/table"
)

// binFromPairs builds a BinaryTable from (l, r) pairs.
func binFromPairs(id int, pairs [][2]string) *table.BinaryTable {
	ls := make([]string, len(pairs))
	rs := make([]string, len(pairs))
	for i, p := range pairs {
		ls[i] = p[0]
		rs[i] = p[1]
	}
	return table.NewBinaryTable(id, id, "d", "l", "r", ls, rs)
}

// paperTables builds B1, B2, B3 from Table 8 of the paper.
func paperTables() []*Candidate {
	b1 := binFromPairs(0, [][2]string{
		{"Afghanistan", "AFG"}, {"Albania", "ALB"}, {"Algeria", "ALG"},
		{"American Samoa", "ASA"}, {"South Korea", "KOR"}, {"US Virgin Islands", "ISV"},
	})
	b2 := binFromPairs(1, [][2]string{
		{"Afghanistan", "AFG"}, {"Albania", "ALB"}, {"Algeria", "ALG"},
		{"American Samoa (US)", "ASA"}, {"Korea, Republic of (South)", "KOR"},
		{"United States Virgin Islands", "ISV"},
	})
	b3 := binFromPairs(2, [][2]string{
		{"Afghanistan", "AFG"}, {"Albania", "ALB"}, {"Algeria", "DZA"},
		{"American Samoa", "ASM"}, {"South Korea", "KOR"}, {"US Virgin Islands", "VIR"},
	})
	return precompute([]*table.BinaryTable{b1, b2, b3})
}

func TestPositiveCompatibilityExample7(t *testing.T) {
	cands := paperTables()
	cp := NewComputer(DefaultOptions())
	// Example 7: exact matching gives w+(B1, B2) = 3/6 = 0.5.
	exactOpt := DefaultOptions()
	exactOpt.MaxApproxProduct = 0 // disable approximate residual matching
	exact := NewComputer(exactOpt)
	if got := exact.Positive(cands[0], cands[1]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("exact w+(B1,B2) = %v, want 0.5", got)
	}
	// Example 8: approximate matching lifts it (the paper reaches 4/6; our
	// normalization-based matcher must find at least the same 3 plus keep
	// the score in [0.5, 1]).
	got := cp.Positive(cands[0], cands[1])
	if got < 0.5-1e-9 || got > 1 {
		t.Errorf("approx w+(B1,B2) = %v, want in [0.5, 1]", got)
	}
	// w+(B1, B3) = 3/6 (first, second, fifth rows agree).
	if got := exact.Positive(cands[0], cands[2]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("w+(B1,B3) = %v, want 0.5", got)
	}
}

func TestNegativeIncompatibilityExample9(t *testing.T) {
	cands := paperTables()
	cp := NewComputer(DefaultOptions())
	// Example 9: B1 and B3 conflict on Algeria, American Samoa and USVI:
	// w- = -3/6 = -0.5.
	if got := cp.Negative(cands[0], cands[2]); math.Abs(got-(-0.5)) > 1e-9 {
		t.Errorf("w-(B1,B3) = %v, want -0.5", got)
	}
	// B1 and B2 describe the same IOC relationship: no conflicts.
	if got := cp.Negative(cands[0], cands[1]); got != 0 {
		t.Errorf("w-(B1,B2) = %v, want 0", got)
	}
	conf := cp.ConflictLeftValues(cands[0], cands[2])
	if len(conf) != 3 {
		t.Errorf("conflict set = %v, want 3 lefts", conf)
	}
}

func TestWeightsSymmetric(t *testing.T) {
	cands := paperTables()
	cp := NewComputer(DefaultOptions())
	for i := range cands {
		for j := range cands {
			if cp.Positive(cands[i], cands[j]) != cp.Positive(cands[j], cands[i]) {
				t.Errorf("w+ not symmetric for %d,%d", i, j)
			}
			if cp.Negative(cands[i], cands[j]) != cp.Negative(cands[j], cands[i]) {
				t.Errorf("w- not symmetric for %d,%d", i, j)
			}
		}
	}
}

func TestContainmentFavorsSubset(t *testing.T) {
	// A small table fully contained in a big one scores w+ = 1 even though
	// Jaccard would be low — the max-of-containment rationale (Section 4.1).
	big := make([][2]string, 40)
	for i := range big {
		big[i] = [2]string{"left" + string(rune('a'+i%26)) + string(rune('0'+i/26)), "right" + string(rune('a'+i))}
	}
	small := big[:5]
	cands := precompute([]*table.BinaryTable{binFromPairs(0, big), binFromPairs(1, small)})
	cp := NewComputer(DefaultOptions())
	if got := cp.Positive(cands[0], cands[1]); math.Abs(got-1) > 1e-9 {
		t.Errorf("containment w+ = %v, want 1", got)
	}
}

func TestBlockedPairs(t *testing.T) {
	cands := paperTables()
	pos, neg := BlockedPairs(cands, 2)
	// All three tables share >= 2 pairs (Afghanistan, Albania rows).
	if len(pos) != 3 {
		t.Errorf("pos pairs = %v, want all 3 combinations", pos)
	}
	// All three share >= 2 left values.
	if len(neg) != 3 {
		t.Errorf("neg pairs = %v", neg)
	}
	// Raising the overlap threshold prunes pairs.
	pos5, _ := BlockedPairs(cands, 5)
	if len(pos5) != 0 {
		t.Errorf("pos pairs at theta=5 = %v, want none", pos5)
	}
}

func TestBuildGraphShape(t *testing.T) {
	cands := paperTables()
	opt := DefaultOptions()
	g := BuildGraph(cands, opt, 2)
	// B1-B2: strong positive, no negative. B1-B3 and B2-B3: positive 0.5
	// with negative -0.5.
	e12 := g.GetEdge(0, 1)
	if e12 == nil || e12.Pos < 0.5 || e12.Neg != 0 {
		t.Errorf("edge B1-B2 = %+v", e12)
	}
	e13 := g.GetEdge(0, 2)
	if e13 == nil || e13.Neg >= 0 {
		t.Errorf("edge B1-B3 = %+v", e13)
	}
}

func TestPrecomputeNormalizesAndDedups(t *testing.T) {
	b := binFromPairs(0, [][2]string{
		{"Japan", "JPN"}, {"JAPAN", "jpn"}, {"Japan[1]", "JPN"},
	})
	cands := precompute([]*table.BinaryTable{b})
	if cands[0].Size() != 1 {
		t.Errorf("normalized size = %d, want 1", cands[0].Size())
	}
	if lo, hi := cands[0].rights(0); len(cands[0].LeftIDs) != 1 || cands[0].left(0) != "japan" || hi-lo != 1 {
		t.Errorf("lefts = %v with %d rights, want one left \"japan\" with one right", cands[0].LeftIDs, hi-lo)
	}
}

func TestPackUnpackPair(t *testing.T) {
	a, b := unpackPair(packPair(123456, 7))
	if a != 7 || b != 123456 {
		t.Errorf("pack/unpack = %d,%d", a, b)
	}
}
