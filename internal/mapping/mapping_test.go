package mapping

import (
	"testing"

	"mapsynth/internal/table"
)

func bin(id int, tableID int, domain string, pairs [][2]string) *table.BinaryTable {
	ls := make([]string, len(pairs))
	rs := make([]string, len(pairs))
	for i, p := range pairs {
		ls[i] = p[0]
		rs[i] = p[1]
	}
	return table.NewBinaryTable(id, tableID, domain, "l", "r", ls, rs)
}

func TestBuildDedupAndProvenance(t *testing.T) {
	a := bin(0, 10, "a.com", [][2]string{{"Japan", "JPN"}, {"Canada", "CAN"}})
	b := bin(1, 11, "b.com", [][2]string{{"JAPAN", "JPN"}, {"Peru", "PER"}})
	c := bin(2, 12, "a.com", [][2]string{{"Japan", "JPN"}})
	m := Build(7, []*table.BinaryTable{a, b, c})
	if m.ID != 7 {
		t.Errorf("ID = %d", m.ID)
	}
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (Japan dedups across case)", m.Size())
	}
	if m.NumTables() != 3 || m.NumDomains() != 2 {
		t.Errorf("tables=%d domains=%d", m.NumTables(), m.NumDomains())
	}
	// Support counts candidates per normalized pair.
	if got := m.SupportOf(table.Pair{L: "japan", R: "Jpn"}); got != 3 {
		t.Errorf("support(japan) = %d, want 3", got)
	}
}

func TestLookup(t *testing.T) {
	a := bin(0, 1, "d", [][2]string{{"Washington", "Olympia"}})
	b := bin(1, 2, "d", [][2]string{{"Washington", "Olympia"}})
	c := bin(2, 3, "d", [][2]string{{"Washington", "Seattle"}})
	m := Build(0, []*table.BinaryTable{a, b, c})
	got, ok := m.Lookup("washington")
	if !ok || got != "Olympia" {
		t.Errorf("Lookup = %q, %v; want majority Olympia", got, ok)
	}
	if _, ok := m.Lookup("nowhere"); ok {
		t.Error("unknown left should miss")
	}
	if _, ok := m.Lookup("WASHINGTON  "); !ok {
		t.Error("Lookup should normalize")
	}
}

func TestDirections(t *testing.T) {
	oneToOne := Build(0, []*table.BinaryTable{bin(0, 1, "d", [][2]string{
		{"a", "1"}, {"b", "2"}, {"c", "3"},
	})})
	ds := oneToOne.Directions()
	if ds.LeftToRight != 1 || ds.RightToLeft != 1 {
		t.Errorf("1:1 directions = %+v", ds)
	}
	nToOne := Build(1, []*table.BinaryTable{bin(0, 1, "d", [][2]string{
		{"Mustang", "Ford"}, {"F-150", "Ford"}, {"Camry", "Toyota"},
	})})
	ds = nToOne.Directions()
	if ds.LeftToRight != 1 {
		t.Errorf("N:1 left-to-right = %v, want 1", ds.LeftToRight)
	}
	if ds.RightToLeft == 1 {
		t.Errorf("N:1 right-to-left = %v, want < 1", ds.RightToLeft)
	}
}

func TestBuildFromPairsFiltering(t *testing.T) {
	a := bin(0, 1, "x.com", [][2]string{{"k", "good"}, {"j", "fine"}})
	b := bin(1, 2, "y.com", [][2]string{{"k", "bad"}})
	voted := []table.Pair{{L: "k", R: "good"}, {L: "j", R: "fine"}}
	m := BuildFromPairs(3, voted, []*table.BinaryTable{a, b})
	if m.Size() != 2 {
		t.Fatalf("Size = %d, want 2", m.Size())
	}
	if got, _ := m.Lookup("k"); got != "good" {
		t.Errorf("Lookup(k) = %q", got)
	}
	// Provenance still spans both tables (b contributed nothing kept, but
	// is recorded as a filtered contributor).
	if m.NumDomains() != 2 {
		t.Errorf("domains = %d", m.NumDomains())
	}
}

func TestNormalizedValues(t *testing.T) {
	m := Build(0, []*table.BinaryTable{bin(0, 1, "d", [][2]string{
		{"a", "X"}, {"B", "X"}, {"c", "Y"},
	})})
	lv, rv := m.NormalizedValues()
	if len(lv) != 3 || lv[0] != "a" || lv[1] != "b" || lv[2] != "c" {
		t.Errorf("left values = %v", lv)
	}
	if len(rv) != 2 || rv[0] != "x" || rv[1] != "y" {
		t.Errorf("right values = %v", rv)
	}
}

func TestPairsSorted(t *testing.T) {
	m := Build(0, []*table.BinaryTable{bin(0, 1, "d", [][2]string{
		{"z", "9"}, {"a", "1"}, {"m", "5"},
	})})
	for i := 1; i < len(m.Pairs); i++ {
		if m.Pairs[i].L < m.Pairs[i-1].L {
			t.Fatalf("pairs not sorted: %v", m.Pairs)
		}
	}
}
