package index_test

import (
	"fmt"
	"testing"

	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// buildIndex indexes the mappings the way every caller does: as a v2 image.
func buildIndex(t testing.TB, maps ...*mapping.Mapping) *index.MappingIndex {
	t.Helper()
	h, err := snapshot.FromMappings(maps)
	if err != nil {
		t.Fatal(err)
	}
	return index.FromSource(h)
}

func mappingOf(id int, pairs [][2]string) *mapping.Mapping {
	ls := make([]string, len(pairs))
	rs := make([]string, len(pairs))
	for i, p := range pairs {
		ls[i] = p[0]
		rs[i] = p[1]
	}
	b := table.NewBinaryTable(id, id, "d", "l", "r", ls, rs)
	return mapping.Build(id, []*table.BinaryTable{b})
}

func TestBloomBasics(t *testing.T) {
	b := index.NewBloom(100, 0.01)
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for _, k := range keys {
		b.Add(k)
	}
	for _, k := range keys {
		if !b.MayContain(k) {
			t.Errorf("false negative for %q", k)
		}
	}
	if b.Len() != len(keys) {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := index.NewBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f exceeds 3x target", rate)
	}
}

func TestBloomNeverFalseNegative(t *testing.T) {
	b := index.NewBloom(10, 0.001) // deliberately undersized relative to inserts
	for i := 0; i < 500; i++ {
		b.Add(fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 500; i++ {
		if !b.MayContain(fmt.Sprintf("k%d", i)) {
			t.Fatalf("false negative at %d", i)
		}
	}
}

func TestBloomDegenerateParams(t *testing.T) {
	b := index.NewBloom(0, 5.0) // clamped
	b.Add("x")
	if !b.MayContain("x") {
		t.Error("clamped filter must still work")
	}
	if b.Bits() < 64 {
		t.Errorf("Bits = %d, want >= 64", b.Bits())
	}
}

func TestLookupLeft(t *testing.T) {
	states := mappingOf(0, [][2]string{
		{"California", "CA"}, {"Washington", "WA"}, {"Oregon", "OR"}, {"Texas", "TX"},
	})
	countries := mappingOf(1, [][2]string{
		{"Japan", "JPN"}, {"Canada", "CAN"}, {"Peru", "PER"},
	})
	ix := buildIndex(t, states, countries)
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	hits := ix.LookupLeft([]string{"california", "TEXAS", "Oregon"}, 0.6)
	if len(hits) != 1 || hits[0].Index != 0 {
		t.Fatalf("hits = %+v, want the states mapping", hits)
	}
	if hits[0].Coverage != 1.0 || hits[0].Matched != 3 {
		t.Errorf("hit = %+v", hits[0])
	}
	// Coverage below threshold: no hit.
	none := ix.LookupLeft([]string{"California", "Atlantis", "Mordor"}, 0.8)
	if len(none) != 0 {
		t.Errorf("expected no hits, got %+v", none)
	}
}

func TestMixedColumnHits(t *testing.T) {
	states := mappingOf(0, [][2]string{
		{"California", "CA"}, {"Washington", "WA"}, {"Oregon", "OR"},
	})
	ix := buildIndex(t, states)
	// A column mixing full names and abbreviations (Table 3 of the paper).
	column := []string{"California", "Washington", "OR", "CA"}
	hits := ix.MixedColumnHits(column, 1, 0.8)
	if len(hits) != 1 {
		t.Fatalf("hits = %+v", hits)
	}
	// A pure column is not "mixed".
	pure := ix.MixedColumnHits([]string{"California", "Washington"}, 1, 0.8)
	if len(pure) != 0 {
		t.Errorf("pure column should not be flagged: %+v", pure)
	}
}

func TestLookupEmptyQuery(t *testing.T) {
	ix := buildIndex(t, mappingOf(0, [][2]string{{"a", "1"}}))
	if hits := ix.LookupLeft(nil, 0.5); hits != nil {
		t.Errorf("nil query should give nil hits, got %v", hits)
	}
	if hits := ix.LookupLeft([]string{"", "--"}, 0.5); hits != nil {
		t.Errorf("empty values should give nil hits, got %v", hits)
	}
}
