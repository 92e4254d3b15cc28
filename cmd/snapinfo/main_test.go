package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// TestDescribe exercises describe on all three on-disk formats — v1, v2,
// and a delta between two v2 images — plus the corruption path.
func TestDescribe(t *testing.T) {
	build := func(prefix string, n int) []*mapping.Mapping {
		states := []string{"California", "Washington", "Oregon", "Texas"}
		coded := make([]string, len(states))
		for i, s := range states {
			coded[i] = prefix + "-" + s[:2]
		}
		var maps []*mapping.Mapping
		for id := 0; id < n; id++ {
			bt := table.NewBinaryTable(id, id, fmt.Sprintf("%s%d.example", prefix, id), "s", "c", states, coded)
			maps = append(maps, mapping.Build(id, []*table.BinaryTable{bt}))
		}
		return maps
	}
	dir := t.TempDir()
	baseMaps := build("A", 3)
	targetMaps := append(build("A", 3), build("B", 1)...)

	// The last file the v1 writer wrote (see internal/snapshot's tests).
	v1 := "../../internal/snapshot/testdata/states.v1.snap"
	v2a, v2b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if err := snapshot.WriteFileV2(v2a, baseMaps); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileV2(v2b, targetMaps); err != nil {
		t.Fatal(err)
	}
	baseData, _ := os.ReadFile(v2a)
	targetData, _ := os.ReadFile(v2b)
	delta, err := snapshot.BuildDelta(baseData, targetData, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dpath := filepath.Join(dir, "ab.delta")
	if err := os.WriteFile(dpath, delta, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{v1, v2a, dpath} {
		if err := describe(path, true); err != nil {
			t.Errorf("describe(%s): %v", path, err)
		}
	}

	// A flipped byte in the delta op stream must fail, not print garbage.
	bad := bytes.Clone(delta)
	bad[len(bad)/2] ^= 0xff
	bpath := filepath.Join(dir, "bad.delta")
	if err := os.WriteFile(bpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := describe(bpath, false); err == nil {
		t.Error("corrupted delta described without error")
	}
}
