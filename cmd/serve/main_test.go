package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/corpusio"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// writeTables writes tables as the JSON corpus -tables reads.
func writeTables(t *testing.T, path string, tables []*table.Table) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := corpusio.WriteTablesJSON(f, tables); err != nil {
		t.Fatal(err)
	}
}

// TestCheckTables: the boot check accepts the tables and -min-domains a
// snapshot was synthesized from, and refuses another -min-domains or a
// corpus missing one contributing table, naming both CRCs.
func TestCheckTables(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	tables := corpusgen.GenerateWeb(corpusgen.Options{Seed: 11, SampleFraction: 0.25}).Tables
	cfg := pipeline.DefaultConfig()
	cfg.MinDomains = 2
	res, err := pipeline.New(cfg).Run(ctx, tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings) == 0 {
		t.Fatal("test corpus synthesizes nothing")
	}
	snapPath := filepath.Join(dir, "out.snap")
	if err := snapshot.WriteFileV2(snapPath, res.Mappings); err != nil {
		t.Fatal(err)
	}
	ld, err := snapshot.Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	snapCRC := fmt.Sprintf("%08x", ld.Handle.CRC())
	ld.Handle.Close()

	corpus := filepath.Join(dir, "corpus.json")
	writeTables(t, corpus, tables)
	got, err := checkTables(ctx, snapPath, corpus, cfg)
	if err != nil {
		t.Fatalf("matching tables refused: %v", err)
	}
	if len(got) != len(tables) {
		t.Fatalf("check returned %d tables, want %d", len(got), len(tables))
	}

	// crcOf is the CRC the check computes for the corpus at path under c:
	// read back, so table IDs are dense as the reader assigns them.
	crcOf := func(path string, c pipeline.Config) string {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tables, err := corpusio.ReadTablesJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.New(c).Run(ctx, tables)
		if err != nil {
			t.Fatal(err)
		}
		h, err := snapshot.FromMappings(res.Mappings)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%08x", h.CRC())
	}

	other := cfg
	other.MinDomains = 3
	_, err = checkTables(ctx, snapPath, corpus, other)
	if err == nil {
		t.Fatal("a -min-domains other than the snapshot's passed the check")
	}
	if want := crcOf(corpus, other); want == snapCRC || !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), snapCRC) || !strings.Contains(err.Error(), "-min-domains 3") {
		t.Fatalf("error %q does not name both CRCs (%s, %s) and -min-domains 3", err, want, snapCRC)
	}

	// Drop one table that contributes to a served mapping.
	drop := res.Mappings[0].TableIDs[0]
	var fewer []*table.Table
	for _, tab := range tables {
		if tab.ID != drop {
			fewer = append(fewer, tab)
		}
	}
	if len(fewer) != len(tables)-1 {
		t.Fatalf("table %d not found once in the corpus", drop)
	}
	short := filepath.Join(dir, "short.json")
	writeTables(t, short, fewer)
	_, err = checkTables(ctx, snapPath, short, cfg)
	if err == nil {
		t.Fatal("a corpus missing a contributing table passed the check")
	}
	if want := crcOf(short, cfg); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), snapCRC) {
		t.Fatalf("error %q does not name both CRCs (%s, %s)", err, want, snapCRC)
	}
}
