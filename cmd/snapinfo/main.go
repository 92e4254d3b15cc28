// Command snapinfo inspects a mapping snapshot file without serving it:
// format version, section layout, mapping/pair counts, and checksum status
// for the mmap-able v2 layout and the legacy v1 stream.
//
// Usage:
//
//	snapinfo [-verify] FILE...
//
// For a v2 file it prints the header fields and the section table (offset,
// length, CRC per section); with -verify it additionally checks the footer
// CRC, every per-section CRC, and the structural invariants (in-bounds
// references, sorted term table) — the full integrity pass that activation
// deliberately skips to stay O(1). For a v1 file it decodes the stream,
// which verifies the whole-file CRC as a side effect; any other version
// byte fails with snapshot.ErrVersion.
//
// Exit status is 0 when every file checks out, 1 when any file fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"mapsynth/internal/snapshot"
)

func main() {
	verify := flag.Bool("verify", false, "run the full integrity pass (footer CRC, per-section CRCs, structural walk) on v2 files")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: snapinfo [-verify] FILE...")
		os.Exit(2)
	}
	status := 0
	for _, path := range flag.Args() {
		if err := describe(path, *verify); err != nil {
			fmt.Fprintf(os.Stderr, "snapinfo: %s: %v\n", path, err)
			status = 1
		}
	}
	os.Exit(status)
}

// describe prints one file's snapshot metadata, dispatching on the version
// byte the same way snapshot.Load does.
func describe(path string, verify bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	head := make([]byte, 5)
	n, _ := f.Read(head)
	info, _ := f.Stat()
	f.Close()
	if n < 5 {
		return snapshot.ErrTruncated
	}
	if [4]byte(head[:4]) != snapshot.Magic {
		return snapshot.ErrMagic
	}

	fmt.Printf("%s:\n", path)
	fmt.Printf("  magic:    %q\n", head[:4])
	fmt.Printf("  version:  %d\n", head[4])
	if info != nil {
		fmt.Printf("  size:     %d bytes\n", info.Size())
	}

	if head[4] == snapshot.Version2 {
		return describeV2(path, verify)
	}
	return describeV1(path)
}

// describeV1 decodes the varint stream; Decode checks the whole-file CRC
// before parsing, so a successful decode is the integrity check.
func describeV1(path string) error {
	maps, err := snapshot.ReadFile(path)
	if err != nil {
		fmt.Printf("  checksum: FAIL\n")
		return err
	}
	pairs := 0
	for _, m := range maps {
		pairs += m.Size()
	}
	fmt.Printf("  mappings: %d\n", len(maps))
	fmt.Printf("  pairs:    %d\n", pairs)
	fmt.Printf("  checksum: ok (whole-file CRC-32, verified by decode)\n")
	return nil
}

// describeV2 opens the file the way activation does (header + section table
// validation only) and prints the section layout; the expensive CRC and
// structural checks run only under -verify.
func describeV2(path string, verify bool) error {
	h, err := snapshot.Open(path)
	if err != nil {
		fmt.Printf("  header:   FAIL\n")
		return err
	}
	defer h.Close()
	fmt.Printf("  mappings: %d\n", h.Len())
	fmt.Printf("  pairs:    %d\n", h.Pairs())
	fmt.Printf("  mapped:   %d bytes\n", h.MappedBytes())
	fmt.Printf("  sections:\n")
	for _, s := range h.Sections() {
		fmt.Printf("    %-10s off=%-10d len=%-10d crc=%08x\n", s.Name, s.Offset, s.Length, s.CRC)
	}
	if !verify {
		fmt.Printf("  checksum: header+table ok (run with -verify for the full pass)\n")
		return nil
	}
	if err := h.Verify(); err != nil {
		fmt.Printf("  checksum: FAIL\n")
		return err
	}
	fmt.Printf("  checksum: ok (footer CRC, %d section CRCs, structural walk)\n", len(h.Sections()))
	return nil
}
