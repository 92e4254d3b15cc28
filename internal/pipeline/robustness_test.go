package pipeline

import (
	"strings"
	"testing"

	"mapsynth/internal/table"
)

// TestPipelineSurvivesDegenerateCorpora injects the malformed inputs real
// extraction produces — empty tables, ragged columns, huge cells, all-empty
// values, single-column tables, duplicated tables — and requires the
// pipeline to terminate cleanly without panicking.
func TestPipelineSurvivesDegenerateCorpora(t *testing.T) {
	long := strings.Repeat("x", 100000)
	corpora := map[string][]*table.Table{
		"empty corpus": {},
		"empty table":  {{ID: 0, Domain: "d"}},
		"one column": {{ID: 0, Domain: "d", Columns: []table.Column{
			{Name: "a", Values: []string{"x", "y"}},
		}}},
		"ragged columns": {{ID: 0, Domain: "d", Columns: []table.Column{
			{Name: "a", Values: []string{"x", "y", "z", "w", "v"}},
			{Name: "b", Values: []string{"1"}},
		}}},
		"empty values": {{ID: 0, Domain: "d", Columns: []table.Column{
			{Name: "a", Values: []string{"", "  ", "--", "", ""}},
			{Name: "b", Values: []string{"", "", "", "", ""}},
		}}},
		"huge cell": {{ID: 0, Domain: "d", Columns: []table.Column{
			{Name: "a", Values: []string{long, "y", "z", "w"}},
			{Name: "b", Values: []string{"1", "2", "3", "4"}},
		}}},
		"duplicate tables": {
			{ID: 0, Domain: "d", Columns: []table.Column{
				{Name: "a", Values: []string{"x", "y", "z", "w"}},
				{Name: "b", Values: []string{"1", "2", "3", "4"}},
			}},
			{ID: 1, Domain: "d", Columns: []table.Column{
				{Name: "a", Values: []string{"x", "y", "z", "w"}},
				{Name: "b", Values: []string{"1", "2", "3", "4"}},
			}},
		},
		"unicode soup": {{ID: 0, Domain: "d", Columns: []table.Column{
			{Name: "a", Values: []string{"日本", "대한민국", "Ελλάδα", "مصر"}},
			{Name: "b", Values: []string{"JP", "KR", "GR", "EG"}},
		}}},
	}
	for name, corpus := range corpora {
		name, corpus := name, corpus
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Extract.CoherenceThreshold = -1
			res := mustRun(t, cfg, corpus)
			if res == nil {
				t.Fatal("nil result")
			}
			// Invariant: every mapping has at least MinPairs pairs.
			for _, m := range res.Mappings {
				if m.Size() < cfg.MinPairs {
					t.Errorf("mapping %d smaller than MinPairs: %d", m.ID, m.Size())
				}
			}
		})
	}
}

// TestPipelineDeterministic requires byte-identical mapping output across
// runs over the same corpus — the property the experiments rely on.
func TestPipelineDeterministic(t *testing.T) {
	corpus := miniCorpus()
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	a := mustRun(t, cfg, corpus)
	b := mustRun(t, cfg, corpus)
	if len(a.Mappings) != len(b.Mappings) {
		t.Fatalf("mapping counts differ: %d vs %d", len(a.Mappings), len(b.Mappings))
	}
	for i := range a.Mappings {
		ma, mb := a.Mappings[i], b.Mappings[i]
		if ma.Size() != mb.Size() {
			t.Fatalf("mapping %d sizes differ", i)
		}
		for j := range ma.Pairs {
			if ma.Pairs[j] != mb.Pairs[j] {
				t.Fatalf("mapping %d pair %d differs: %v vs %v", i, j, ma.Pairs[j], mb.Pairs[j])
			}
		}
	}
}

// TestMappingsSatisfyFunctionalInvariant: after greedy conflict resolution,
// every synthesized mapping must be conflict-free — no left value with two
// non-matching right values (the definition of a mapping relationship).
func TestMappingsSatisfyFunctionalInvariant(t *testing.T) {
	corpus := miniCorpus()
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	res := mustRun(t, cfg, corpus)
	for _, m := range res.Mappings {
		byLeft := map[string]map[string]bool{}
		for _, p := range m.Pairs {
			l := strings.ToLower(strings.TrimSpace(p.L))
			if byLeft[l] == nil {
				byLeft[l] = map[string]bool{}
			}
			byLeft[l][strings.ToLower(p.R)] = true
		}
		for l, rs := range byLeft {
			if len(rs) > 2 { // approximate matching tolerates close variants
				t.Errorf("mapping %d: left %q has %d distinct rights: %v", m.ID, l, len(rs), rs)
			}
		}
	}
}
