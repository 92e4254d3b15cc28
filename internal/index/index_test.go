package index_test

import (
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
