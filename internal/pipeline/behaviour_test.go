package pipeline

import (
	"context"
	"testing"

	"mapsynth/internal/table"
)

// mustRun synthesizes tables with cfg, failing the test on error.
func mustRun(t *testing.T, cfg Config, tables []*table.Table) *Result {
	t.Helper()
	res, err := New(cfg).Run(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSynthesizeSeparatesConfusableSystems(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1 // tiny corpus: skip PMI filtering
	res := mustRun(t, cfg, miniCorpus())
	if len(res.Mappings) < 2 {
		t.Fatalf("mappings = %d, want at least the two systems", len(res.Mappings))
	}
	// No synthesized mapping may mix C3 and X3 for gamma.
	for _, m := range res.Mappings {
		got, ok := m.Lookup("gamma")
		if !ok {
			continue
		}
		seen := map[string]bool{}
		for _, p := range m.Pairs {
			if p.L == "gamma" {
				seen[p.R] = true
			}
		}
		if seen["C3"] && seen["X3"] {
			t.Errorf("mapping %v mixes both code systems for gamma (lookup=%q)", m, got)
		}
	}
}

func TestSynthesizePosMergesThem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	cfg.DisableNegativeSignal = true
	cfg.Resolution = ResolveNone
	res := mustRun(t, cfg, miniCorpus())
	merged := false
	for _, m := range res.Mappings {
		seen := map[string]bool{}
		for _, p := range m.Pairs {
			if p.L == "gamma" {
				seen[p.R] = true
			}
		}
		if seen["C3"] && seen["X3"] {
			merged = true
		}
	}
	if !merged {
		t.Error("without negative signal the confusable systems should merge")
	}
}

func TestConflictResolutionRemovesDirtyTable(t *testing.T) {
	// A dirty table with a small conflict ratio (2 of 10 lefts, w- = -0.2,
	// not strictly below τ = -0.2) merges into the clean cluster; conflict
	// resolution must then remove it (the Figure-4 scenario). A dirtier
	// table would be kept out by the hard constraint instead.
	lefts := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	clean := []string{"A1", "B2", "C3", "D4", "E5", "F6", "G7", "H8", "I9", "J10"}
	dirty := append([]string{}, clean...)
	dirty[2], dirty[3] = dirty[3], dirty[2] // swap gamma/delta codes
	var tables []*table.Table
	for i := 0; i < 6; i++ {
		tables = append(tables, &table.Table{
			ID: i, Domain: domainOf(i),
			Columns: []table.Column{
				{Name: "name", Values: lefts},
				{Name: "code", Values: clean},
			},
		})
	}
	tables = append(tables, &table.Table{
		ID: 6, Domain: "dirty.com",
		Columns: []table.Column{
			{Name: "name", Values: lefts},
			{Name: "code", Values: dirty},
		},
	})
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	res := mustRun(t, cfg, tables)
	if res.TablesRemoved == 0 {
		t.Error("conflict resolution should remove the dirty table's candidates")
	}
	for _, m := range res.Mappings {
		if got, ok := m.Lookup("gamma"); ok && got != "C3" {
			t.Errorf("gamma resolved to %q, want clean C3", got)
		}
	}
}

func TestResolutionStrategies(t *testing.T) {
	for _, strat := range []ResolutionStrategy{ResolveGreedy, ResolveMajority, ResolveNone} {
		cfg := DefaultConfig()
		cfg.Extract.CoherenceThreshold = -1
		cfg.Resolution = strat
		res := mustRun(t, cfg, miniCorpus())
		if len(res.Mappings) == 0 {
			t.Errorf("strategy %v produced no mappings", strat)
		}
	}
}

func TestMinDomainsFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	cfg.MinDomains = 50 // impossible
	res := mustRun(t, cfg, miniCorpus())
	if len(res.Mappings) != 0 {
		t.Errorf("MinDomains filter ignored: %d mappings", len(res.Mappings))
	}
}

func TestTimingsPopulated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	res := mustRun(t, cfg, miniCorpus())
	if res.Timings.Total <= 0 {
		t.Error("total timing missing")
	}
	sum := res.Timings.Index + res.Timings.Extract + res.Timings.Graph +
		res.Timings.Partition + res.Timings.Resolve
	if sum > res.Timings.Total*2 {
		t.Errorf("stage timings inconsistent: sum=%v total=%v", sum, res.Timings.Total)
	}
}

func TestMappingsSortedByPopularity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1
	res := mustRun(t, cfg, miniCorpus())
	for i := 1; i < len(res.Mappings); i++ {
		if res.Mappings[i].NumDomains() > res.Mappings[i-1].NumDomains() {
			t.Errorf("mappings not sorted by popularity at %d", i)
		}
	}
}
