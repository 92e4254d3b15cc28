package apps

import (
	"testing"

	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// indexOf indexes the mappings the way every caller does: as a v2 image.
func indexOf(maps ...*mapping.Mapping) *index.MappingIndex {
	h, err := snapshot.FromMappings(maps)
	if err != nil {
		panic(err)
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

func stateIndex() *index.MappingIndex {
	states := mappingOf(0, [][2]string{
		{"California", "CA"}, {"Washington", "WA"}, {"Oregon", "OR"},
		{"Texas", "TX"}, {"Colorado", "CO"},
	})
	cities := mappingOf(1, [][2]string{
		{"San Francisco", "California"}, {"Seattle", "Washington"},
		{"Los Angeles", "California"}, {"Houston", "Texas"}, {"Denver", "Colorado"},
	})
	return indexOf(states, cities)
}

func TestAutoCorrectTable3(t *testing.T) {
	ix := stateIndex()
	// Table 3 of the paper: a state column mixing full names with
	// abbreviations; the abbreviations get corrected to full names.
	column := []string{"California", "Washington", "Oregon", "CA", "WA"}
	res := autoCorrectOne(ix, AutoCorrectQuery{Column: column, MinEach: 2, MinCoverage: 0.8})
	if res.MappingIndex != 0 {
		t.Fatalf("MappingIndex = %d", res.MappingIndex)
	}
	if len(res.Corrections) != 2 {
		t.Fatalf("corrections = %+v", res.Corrections)
	}
	if res.Corrections[0].Row != 3 || res.Corrections[0].Suggested != "California" {
		t.Errorf("correction[0] = %+v", res.Corrections[0])
	}
	if res.Corrections[1].Row != 4 || res.Corrections[1].Suggested != "Washington" {
		t.Errorf("correction[1] = %+v", res.Corrections[1])
	}
}

func TestAutoCorrectMajorityAbbreviations(t *testing.T) {
	ix := stateIndex()
	// Majority abbreviations: the lone full name becomes an abbreviation.
	column := []string{"CA", "WA", "OR", "Texas"}
	res := autoCorrectOne(ix, AutoCorrectQuery{Column: column, MinEach: 1, MinCoverage: 0.8})
	if res.MappingIndex != 0 || len(res.Corrections) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Corrections[0].Suggested != "TX" {
		t.Errorf("suggested = %q, want TX", res.Corrections[0].Suggested)
	}
}

func TestAutoCorrectCleanColumn(t *testing.T) {
	ix := stateIndex()
	res := autoCorrectOne(ix, AutoCorrectQuery{Column: []string{"California", "Washington"}, MinEach: 1, MinCoverage: 0.8})
	if res.MappingIndex != -1 {
		t.Errorf("clean column flagged: %+v", res)
	}
}

func TestAutoFillTable4(t *testing.T) {
	ix := stateIndex()
	// Table 4 of the paper: city column, one example pair, fill the rest.
	column := []string{"San Francisco", "Seattle", "Los Angeles", "Houston", "Denver"}
	res := autoFillOne(ix, AutoFillQuery{Column: column, Examples: []Example{{Left: "San Francisco", Right: "California"}}, MinCoverage: 0.8})
	if res.MappingIndex != 1 {
		t.Fatalf("MappingIndex = %d", res.MappingIndex)
	}
	want := map[int]string{0: "California", 1: "Washington", 2: "California", 3: "Texas", 4: "Colorado"}
	for row, state := range want {
		if res.Filled[row] != state {
			t.Errorf("Filled[%d] = %q, want %q", row, res.Filled[row], state)
		}
	}
}

func TestAutoFillRejectsContradictingExample(t *testing.T) {
	ix := stateIndex()
	res := autoFillOne(ix, AutoFillQuery{Column: []string{"San Francisco", "Seattle"},
		Examples: []Example{{Left: "San Francisco", Right: "Nevada"}}, MinCoverage: 0.8})
	if res.MappingIndex != -1 {
		t.Errorf("contradicting example accepted: %+v", res)
	}
}

func TestAutoJoinTable5(t *testing.T) {
	// Table 5 of the paper: join tickers with company names via the
	// ticker→company mapping.
	bridge := mappingOf(0, [][2]string{
		{"GE", "General Electric"}, {"WMT", "Walmart"},
		{"MSFT", "Microsoft Corp."}, {"ORCL", "Oracle"}, {"UPS", "United Parcel Services"},
	})
	ix := indexOf(bridge)
	keysA := []string{"GE", "WMT", "MSFT", "ORCL", "UPS"}
	keysB := []string{"General Electric", "Walmart", "Oracle", "Microsoft Corp.", "AT&T Inc."}
	res := autoJoinOne(ix, AutoJoinQuery{KeysA: keysA, KeysB: keysB, MinCoverage: 0.8})
	if res.MappingIndex != 0 {
		t.Fatalf("MappingIndex = %d", res.MappingIndex)
	}
	if res.Bridged != 4 {
		t.Errorf("Bridged = %d, want 4 (AT&T has no ticker row)", res.Bridged)
	}
	// GE (row 0) joins General Electric (row 0).
	if len(res.Rows) == 0 || res.Rows[0] != (JoinRow{LeftRow: 0, RightRow: 0}) {
		t.Errorf("Rows = %+v", res.Rows)
	}
}

func TestAutoJoinNoBridge(t *testing.T) {
	ix := stateIndex()
	res := autoJoinOne(ix, AutoJoinQuery{KeysA: []string{"zzz", "yyy"}, KeysB: []string{"a"}, MinCoverage: 0.5})
	if res.MappingIndex != -1 {
		t.Errorf("expected no bridge, got %+v", res)
	}
}
