package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// TestDescribe exercises describe on both loadable formats — v1 and v2 —
// and on the files it must refuse: a v2 image with one flipped byte (caught
// by -verify, not by the O(1) header check) and a file whose version byte
// is 3, which no reader accepts.
func TestDescribe(t *testing.T) {
	states := []string{"California", "Washington", "Oregon", "Texas"}
	coded := make([]string, len(states))
	for i, s := range states {
		coded[i] = "A-" + s[:2]
	}
	var maps []*mapping.Mapping
	for id := 0; id < 3; id++ {
		bt := table.NewBinaryTable(id, id, fmt.Sprintf("a%d.example", id), "s", "c", states, coded)
		maps = append(maps, mapping.Build(id, []*table.BinaryTable{bt}))
	}
	dir := t.TempDir()

	// The last file the v1 writer wrote (see internal/snapshot's tests).
	v1 := "../../internal/snapshot/testdata/states.v1.snap"
	v2 := filepath.Join(dir, "a.snap")
	if err := snapshot.WriteFileV2(v2, maps); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1, v2} {
		if err := describe(path, true); err != nil {
			t.Errorf("describe(%s): %v", path, err)
		}
	}

	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := snapshot.OpenBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	for _, s := range h.Sections() {
		if s.Name == "arena" {
			flipped[s.Offset+s.Length/2] ^= 0x01
		}
	}
	bad := write("flipped.snap", flipped)
	if err := describe(bad, false); err != nil {
		t.Errorf("a flip inside a section must get past the header check: %v", err)
	}
	if err := describe(bad, true); err == nil {
		t.Error("bit-flipped v2 passed -verify")
	}

	// Magic, version byte 3, a payload and a valid CRC footer.
	v3 := append(append([]byte(nil), snapshot.Magic[:]...), 3, 0, 0, 0)
	v3 = binary.LittleEndian.AppendUint32(v3, crc32.ChecksumIEEE(v3))
	if err := describe(write("v3.snap", v3), true); err == nil {
		t.Error("version-3 file described without error")
	}
}
