package table

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"mapsynth/internal/textnorm"
)

func TestTableBasics(t *testing.T) {
	tab := &Table{
		ID:     1,
		Domain: "example.com",
		Columns: []Column{
			{Name: "country", Values: []string{"Japan", "Canada", "Peru"}},
			{Name: "code", Values: []string{"JPN", "CAN"}},
		},
	}
	if got := tab.NumRows(); got != 2 {
		t.Errorf("NumRows = %d, want 2 (shortest column)", got)
	}
	if got := tab.NumColumns(); got != 2 {
		t.Errorf("NumColumns = %d, want 2", got)
	}
	names := tab.ColumnNames()
	if len(names) != 2 || names[0] != "country" || names[1] != "code" {
		t.Errorf("ColumnNames = %v", names)
	}
	if (&Table{}).NumRows() != 0 {
		t.Error("empty table should have 0 rows")
	}
}

func TestNewBinaryTableDedupAndEmptyLeft(t *testing.T) {
	b := NewBinaryTable(0, 1, "d", "l", "r",
		[]string{"a", "a", "", "b", "a"},
		[]string{"1", "1", "9", "2", "3"})
	want := []Pair{{L: "a", R: "1"}, {L: "b", R: "2"}, {L: "a", R: "3"}}
	if len(b.Pairs) != len(want) {
		t.Fatalf("Pairs = %v, want %v", b.Pairs, want)
	}
	for i := range want {
		if b.Pairs[i] != want[i] {
			t.Errorf("Pairs[%d] = %v, want %v", i, b.Pairs[i], want[i])
		}
	}
	if b.Size() != 3 {
		t.Errorf("Size = %d", b.Size())
	}
}

func TestBinaryTableValueAccessors(t *testing.T) {
	b := NewBinaryTable(0, 1, "d", "l", "r",
		[]string{"a", "b", "a"},
		[]string{"1", "2", "3"})
	lv := b.LeftValues()
	if len(lv) != 2 || lv[0] != "a" || lv[1] != "b" {
		t.Errorf("LeftValues = %v", lv)
	}
	rv := b.RightValues()
	if len(rv) != 3 {
		t.Errorf("RightValues = %v", rv)
	}
}

func TestReverse(t *testing.T) {
	b := NewBinaryTable(7, 1, "d", "l", "r", []string{"a", "b"}, []string{"1", "2"})
	r := b.Reverse()
	if r.LeftName != "r" || r.RightName != "l" {
		t.Errorf("names not swapped: %s %s", r.LeftName, r.RightName)
	}
	if r.Pairs[0] != (Pair{L: "1", R: "a"}) {
		t.Errorf("pairs not reversed: %v", r.Pairs)
	}
	// Double reverse is identity on pairs.
	rr := r.Reverse()
	for i := range b.Pairs {
		if rr.Pairs[i] != b.Pairs[i] {
			t.Errorf("double reverse changed pair %d", i)
		}
	}
}

func TestSortPairsDeterministic(t *testing.T) {
	b := &BinaryTable{Pairs: []Pair{{L: "b", R: "2"}, {L: "a", R: "9"}, {L: "a", R: "1"}}}
	b.SortPairs()
	want := []Pair{{L: "a", R: "1"}, {L: "a", R: "9"}, {L: "b", R: "2"}}
	for i := range want {
		if b.Pairs[i] != want[i] {
			t.Fatalf("SortPairs = %v", b.Pairs)
		}
	}
}

func TestPairSetMatchesPairs(t *testing.T) {
	f := func(ls, rs []string) bool {
		n := len(ls)
		if len(rs) < n {
			n = len(rs)
		}
		if n > 30 {
			return true
		}
		b := NewBinaryTable(0, 0, "d", "l", "r", ls, rs)
		set := b.PairSet()
		if len(set) != len(b.Pairs) {
			return false
		}
		for _, p := range b.Pairs {
			if _, ok := set[p]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormView(t *testing.T) {
	b := NewBinaryTable(0, 0, "d", "l", "r",
		[]string{"Japan", "JAPAN", "Japan[1]", "[2]", "Peru", "---"},
		[]string{"JPN", "jpn", "JPN", "x", "", "y"})
	v := b.Norm()
	want := []NormPair{
		{L: "japan", R: "jpn", Key: "japan\x1fjpn", Src: 0},
		{L: "peru", R: "", Key: "peru\x1f", Src: 4},
	}
	if len(v.Pairs) != len(want) {
		t.Fatalf("Norm().Pairs = %+v, want %+v", v.Pairs, want)
	}
	for i := range want {
		if v.Pairs[i] != want[i] {
			t.Errorf("pair %d = %+v, want %+v", i, v.Pairs[i], want[i])
		}
	}
	if b.Norm() != v {
		t.Error("Norm must be computed once and cached")
	}
	// Editing Pairs is detected when it changes their number, and SortPairs
	// drops the view because it moves the surface forms Src points at.
	b.Pairs = append(b.Pairs, Pair{L: "Chile", R: "CHL"})
	if got := b.Norm(); got == v || len(got.Pairs) != 3 {
		t.Errorf("after append: %d pairs (same view: %v), want a rebuilt view of 3", len(got.Pairs), got == v)
	}
	b.SortPairs()
	for _, np := range b.Norm().Pairs {
		if p := b.Pairs[np.Src]; textnorm.Normalize(p.L) != np.L || textnorm.Normalize(p.R) != np.R {
			t.Errorf("after SortPairs: Src of %+v points at %v", np, p)
		}
	}
}

func TestNormViewConcurrentFirstUse(t *testing.T) {
	ls, rs := make([]string, 200), make([]string, 200)
	for i := range ls {
		ls[i], rs[i] = fmt.Sprintf("Left %d", i%150), fmt.Sprintf("R%d", i%150)
	}
	b := NewBinaryTable(0, 0, "d", "l", "r", ls, rs)
	var wg sync.WaitGroup
	sizes := make([]int, 8)
	for g := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes[g] = len(b.Norm().Pairs)
		}()
	}
	wg.Wait()
	for _, n := range sizes {
		if n != 150 {
			t.Fatalf("concurrent Norm() saw %d pairs, want 150", n)
		}
	}
}
