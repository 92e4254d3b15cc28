package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// v2Bytes encodes the shared test corpus as a v2 snapshot.
func v2Bytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteV2(&buf, smallMappings(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	maps := smallMappings(t)
	var v2 bytes.Buffer
	if err := WriteV2(&v2, maps); err != nil {
		t.Fatal(err)
	}
	// Decode dispatches on the version byte: v2 bytes must decode to the
	// mapping set that was written.
	got, err := Decode(v2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, got, maps)
	// Writer determinism: same input, same bytes — written or built in
	// memory.
	var again bytes.Buffer
	if err := WriteV2(&again, maps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2.Bytes(), again.Bytes()) {
		t.Fatal("WriteV2 is not deterministic")
	}
	h, err := FromMappings(maps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Bytes(), v2.Bytes()) || h.Mapped() || h.Path() != "" {
		t.Fatal("FromMappings image differs from WriteV2 output")
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("Verify on a FromMappings image: %v", err)
	}
}

func TestV2OpenAndVerify(t *testing.T) {
	maps := smallMappings(t)
	path := filepath.Join(t.TempDir(), "c2.snap")
	if err := WriteFileV2(path, maps); err != nil {
		t.Fatal(err)
	}
	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Len() != len(maps) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(maps))
	}
	if h.MappedBytes() <= 0 || h.Path() != path {
		t.Fatalf("handle metadata: mapped=%d path=%q", h.MappedBytes(), h.Path())
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("Verify on a clean file: %v", err)
	}
	secs := h.Sections()
	if len(secs) != v2NumSections {
		t.Fatalf("Sections = %d entries, want %d", len(secs), v2NumSections)
	}
	for i, s := range secs {
		if s.Type != i+1 || s.Name == "" {
			t.Fatalf("section %d: %+v", i, s)
		}
	}
	if h.Pairs() <= 0 {
		t.Fatalf("Pairs = %d", h.Pairs())
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// ---- corruption matrix ----

// fixTableCRCs recomputes one section's table CRC (from its current bytes),
// then the header CRC and the file footer, so a test can corrupt structure
// while keeping every checksum that guards earlier validation stages valid.
func fixTableCRCs(data []byte, secIdx int) {
	if secIdx >= 0 {
		e := v2HeaderSize + secIdx*v2SectionEntry
		off := binary.LittleEndian.Uint64(data[e+8:])
		ln := binary.LittleEndian.Uint64(data[e+16:])
		binary.LittleEndian.PutUint32(data[e+24:], crc32.ChecksumIEEE(data[off:off+ln]))
	}
	c := crc32.ChecksumIEEE(data[:60])
	c = crc32.Update(c, crc32.IEEETable, data[v2HeaderSize:v2TableEnd])
	binary.LittleEndian.PutUint32(data[60:], c)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
}

// queryNoPanic drives every read path of a (possibly corrupt) open handle;
// the only acceptable failure mode is empty answers. The index queries over
// the same images run in the external test package (query_test.go).
func queryNoPanic(t *testing.T, h *Handle) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("querying a corrupt handle panicked: %v", r)
		}
	}()
	hash := HashOf("california")
	for i := 0; i < h.Len(); i++ {
		h.MayContainRight(i, hash)
		h.InLeft(i, "california")
		h.InRight(i, "ca")
		h.Mapping(i)
	}
	h.Postings("california")
}

// v2Corruption is one case of the corruption matrix.
type v2Corruption struct {
	name    string
	mutate  func(d []byte) []byte
	openErr error // expected Open error; nil means Open succeeds
	// verifyErr is checked when openErr is nil.
	verifyErr error
}

// v2Corruptions returns the corruption matrix over the valid image good.
func v2Corruptions(good []byte) []v2Corruption {
	// Record 0's and the terms section's offsets, in file coordinates.
	recSecOff := binary.LittleEndian.Uint64(good[v2HeaderSize+(secRecords-1)*v2SectionEntry+8:])
	termsSecOff := binary.LittleEndian.Uint64(good[v2HeaderSize+(secTerms-1)*v2SectionEntry+8:])

	return []v2Corruption{
		{"truncated tiny", func(d []byte) []byte { return d[:10] }, ErrTruncated, nil},
		{"truncated mid table", func(d []byte) []byte { return d[:v2TableEnd-20] }, ErrTruncated, nil},
		{"truncated tail", func(d []byte) []byte { return d[:len(d)-100] }, ErrTruncated, nil},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, ErrMagic, nil},
		{"v1 version byte", func(d []byte) []byte { d[4] = 1; return d }, ErrVersion, nil},
		{"bad section count", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 8)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"bad record size", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], 80)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"header crc", func(d []byte) []byte { d[24] ^= 0xff; return d }, ErrChecksum, nil},
		{"section type out of order", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[v2HeaderSize:], secRecords)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"overlapping sections", func(d []byte) []byte {
			// Give the records section the arena's offset: ascending order
			// breaks, so the table is rejected.
			arenaOff := binary.LittleEndian.Uint64(d[v2HeaderSize+8:])
			binary.LittleEndian.PutUint64(d[v2HeaderSize+v2SectionEntry+8:], arenaOff)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"section past EOF", func(d []byte) []byte {
			e := v2HeaderSize + (v2NumSections-1)*v2SectionEntry
			ln := binary.LittleEndian.Uint64(d[e+16:])
			binary.LittleEndian.PutUint64(d[e+16:], ln+1<<20)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"misaligned section", func(d []byte) []byte {
			e := v2HeaderSize + 2*v2SectionEntry
			off := binary.LittleEndian.Uint64(d[e+8:])
			binary.LittleEndian.PutUint64(d[e+8:], off+4)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"mapping count mismatch", func(d []byte) []byte {
			n := binary.LittleEndian.Uint64(d[24:])
			binary.LittleEndian.PutUint64(d[24:], n+1)
			fixTableCRCs(d, -1)
			return d
		}, ErrLayout, nil},
		{"arena bit rot", func(d []byte) []byte {
			// Open validates the header only; Verify catches the section CRC.
			arenaOff := binary.LittleEndian.Uint64(d[v2HeaderSize+8:])
			d[arenaOff] ^= 0xff
			binary.LittleEndian.PutUint32(d[len(d)-4:], crc32.ChecksumIEEE(d[:len(d)-4]))
			return d
		}, nil, ErrChecksum},
		{"string ref out of range", func(d []byte) []byte {
			// Point record 0's left-values run far past the strrefs section;
			// re-seal the records CRC so only the structural walk can object.
			binary.LittleEndian.PutUint32(d[recSecOff+recLVals:], 0xfffffff0)
			fixTableCRCs(d, secRecords-1)
			return d
		}, nil, ErrLayout},
		{"pair run out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[recSecOff+recPair+4:], 0xffffff)
			fixTableCRCs(d, secRecords-1)
			return d
		}, nil, ErrLayout},
		{"bloom params out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[recSecOff+recLBloom+4:], 0xffffff00)
			fixTableCRCs(d, secRecords-1)
			return d
		}, nil, ErrLayout},
		{"postings out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[termsSecOff+12:], 0xffffff)
			fixTableCRCs(d, secTerms-1)
			return d
		}, nil, ErrLayout},
		{"footer bit rot", func(d []byte) []byte {
			d[len(d)-1] ^= 0xff
			return d
		}, nil, ErrChecksum},
	}
}

func TestV2CorruptionMatrix(t *testing.T) {
	good := v2Bytes(t)
	for _, tc := range v2Corruptions(good) {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			h, err := OpenBytes(data)
			if tc.openErr != nil {
				if !errors.Is(err, tc.openErr) {
					t.Fatalf("OpenBytes = %v, want %v", err, tc.openErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenBytes: %v (corruption should get past the O(1) open)", err)
			}
			if verr := h.Verify(); !errors.Is(verr, tc.verifyErr) {
				t.Fatalf("Verify = %v, want %v", verr, tc.verifyErr)
			}
			// The hard guarantee: a corrupt-but-opened snapshot answers
			// queries degraded, never panicking or over-reading.
			queryNoPanic(t, h)
		})
	}
}

// badPostingImage returns a copy of a valid image in which the first posting
// of term is Len()+7, with every checksum re-sealed: the one corruption the
// index cannot bounds-check inside the Handle, because the value is a
// mapping position rather than a section offset.
func badPostingImage(t testing.TB, good []byte, term string) []byte {
	t.Helper()
	h, err := OpenBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < len(h.terms)/v2TermEntry; j++ {
		if h.termStr(j) != term {
			continue
		}
		bad := append([]byte(nil), good...)
		at := h.secs[secPostings].off + uint64(le32(h.terms, j*v2TermEntry+8))
		binary.LittleEndian.PutUint32(bad[at:], uint32(h.Len()+7))
		fixTableCRCs(bad, secPostings-1)
		return bad
	}
	t.Fatalf("term %q is not in the image", term)
	return nil
}

// TestV2OutOfRangePosting: Open does not read the postings section, so a
// mapping position past the record table reaches the query path; Verify
// must report it. That the index skips it is checked in query_test.go.
func TestV2OutOfRangePosting(t *testing.T) {
	good := v2Bytes(t)
	h, err := OpenBytes(badPostingImage(t, good, "california"))
	if err != nil {
		t.Fatalf("OpenBytes: %v (a bad posting should get past the O(1) open)", err)
	}
	if verr := h.Verify(); !errors.Is(verr, ErrLayout) {
		t.Fatalf("Verify = %v, want %v", verr, ErrLayout)
	}
	queryNoPanic(t, h)
}

// TestV2FooterContract pins the compatibility rule the format doc mandates:
// a v2 file ends with the same whole-file CRC footer as v1, so a pure-v1
// reader reports ErrVersion (a clear "upgrade me") rather than ErrChecksum.
func TestV2FooterContract(t *testing.T) {
	data := v2Bytes(t)
	payload, footer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(footer); got != want {
		t.Fatalf("v2 file's trailing 4 bytes are not the whole-file CRC: %08x vs %08x", got, want)
	}
	if string(data[:4]) != string(Magic[:]) {
		t.Fatal("v2 file does not open with the shared snapshot magic")
	}
}
