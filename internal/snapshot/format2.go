// Format version 2 is the mmap-able snapshot layout: a fixed-width,
// little-endian, section-based file that a reader can serve queries from
// without decoding it onto the heap. Where the legacy v1 is a varint stream
// that must be parsed mapping by mapping, v2 is position metadata over flat
// arrays — opening a file is a mmap plus an O(sections)
// header validation, and the kernel pages data in lazily as queries touch
// it. Strings are (offset, length) references into one interned arena and
// surface to Go as zero-copy unsafe.String views; postings and Bloom words
// are served as typed slices over the mapped region.
//
// Layout (all integers little-endian, fixed width):
//
//	[0, 64)      header: magic "MSNP", version 2, section count, record
//	             size, file size, mapping count, pair count, CRC of
//	             header+section table
//	[64, 352)    section table: 9 × 32-byte entries {type, offset, length,
//	             CRC-32}, in fixed type order, offsets ascending and
//	             4096-aligned
//	sections     arena, records, pairs, ints, strrefs, surface, bloom,
//	             terms, postings (see the section constants)
//	EOF-4        fixed32 IEEE CRC-32 of every byte before it — the same
//	             footer rule as v1, so a v1 reader cleanly reports
//	             ErrVersion instead of ErrChecksum on a v2 file
//
// Open validates the header, table CRC and section bounds only — O(1) in
// the corpus — while Verify re-reads the whole file (footer CRC, every
// section CRC, and a structural walk of every record and string reference).
// All runtime accessors bounds-check against their section and degrade to
// empty results on out-of-range references: a corrupt file that slips past
// Open can answer wrong, but it can never panic or over-read.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"unsafe"

	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/table"
)

// Version2 is the mmap-able format version.
const Version2 byte = 2

// v2 layout constants. The record size is part of the header so a reader
// can reject files written with a different stride instead of misparsing.
const (
	v2HeaderSize   = 64
	v2SectionEntry = 32
	v2NumSections  = 9
	v2TableEnd     = v2HeaderSize + v2NumSections*v2SectionEntry
	v2Align        = 4096
	v2RecordSize   = 88
	v2PairEntry    = 20 // {lOff, lLen, rOff, rLen, support} u32
	v2StrRef       = 8  // {off, len} u32
	v2SurfEntry    = 16 // {nrOff, nrLen, surfOff, surfLen} u32
	v2TermEntry    = 16 // {nlOff, nlLen, postOff, postCnt} u32
)

// Section types, in file order. The table must list exactly these, each
// once, ascending.
const (
	secArena    = 1 // raw interned string bytes
	secRecords  = 2 // mappingCount × v2RecordSize fixed records
	secPairs    = 3 // v2PairEntry entries: value pairs + per-pair support
	secInts     = 4 // int32 arrays (table ids, candidate ids)
	secStrRefs  = 5 // v2StrRef entries (domains, sorted value tables)
	secSurface  = 6 // v2SurfEntry entries (normalized right → surface form)
	secBloom    = 7 // uint64 filter words
	secTerms    = 8 // v2TermEntry entries, sorted by term string
	secPostings = 9 // int32 mapping positions
)

var sectionNames = [v2NumSections + 1]string{
	"", "arena", "records", "pairs", "ints", "strrefs",
	"surface", "bloom", "terms", "postings",
}

// SectionName returns the human name of a v2 section type.
func SectionName(typ int) string {
	if typ >= 1 && typ <= v2NumSections {
		return sectionNames[typ]
	}
	return fmt.Sprintf("unknown(%d)", typ)
}

// Record field offsets (bytes within one record). Offsets of variable data
// are byte offsets within the owning section; counts are element counts.
const (
	recID      = 0  // i64
	recPair    = 8  // off,cnt into pairs
	recTables  = 16 // off,cnt into ints
	recCands   = 24 // off,cnt into ints
	recDomains = 32 // off,cnt into strrefs
	recLVals   = 40 // off,cnt into strrefs (sorted normalized left values)
	recRVals   = 48 // off,cnt into strrefs (sorted normalized right values)
	recSurface = 56 // off,cnt into surface
	recLBloom  = 64 // off(bytes into bloom), mBits, k — u32 ×3
	recRBloom  = 76 // off, mBits, k
)

// SectionInfo describes one section for inspection tools (cmd/snapinfo).
type SectionInfo struct {
	Type   int
	Name   string
	Offset uint64
	Length uint64
	CRC    uint32
}

type span struct {
	off, ln uint64
	crc     uint32
}

// Handle is an opened v2 snapshot: the raw region (a mapped file, or an
// image in process memory from FromMappings, Prefix.Image or OpenBytes)
// plus typed views over its sections. It is the one production
// index.Source — index.FromSource(h) serves containment queries directly
// from the region — and what every serving state is backed by.
// Mappings materialize lazily on first hit and are cached; the strings they
// carry are views into the region, so materialized mappings must not
// outlive the Handle. The serving layer guarantees that by keeping the
// Handle on the corpus State; a finalizer unmaps dropped handles.
type Handle struct {
	data   []byte
	mapped bool
	path   string

	n        int // mappings
	pairN    int // total pairs
	secs     [v2NumSections + 1]span
	arena    []byte
	records  []byte
	pairs    []byte
	ints     []byte
	strrefs  []byte
	surface  []byte
	terms    []byte
	bloom    []uint64
	postings []int32

	maps   []atomic.Pointer[mapping.Mapping]
	closed atomic.Bool
}

var _ index.Source = (*Handle)(nil)

// Open maps the v2 snapshot at path read-only and validates its header and
// section table — O(sections), not O(corpus); the data itself is paged in
// lazily by queries. The page cache backing the mapping is shared with
// every other process serving the same file. Use Verify for a full
// integrity check, and Close (or garbage collection) to unmap.
func Open(path string) (*Handle, error) {
	data, mapped, err := mapPath(path)
	if err != nil {
		return nil, err
	}
	return openMapped(data, mapped, path)
}

// mapPath maps the file at path read-only (see mmapFile).
func mapPath(path string) (data []byte, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	data, mapped, err = mmapFile(f, fi.Size())
	if err != nil {
		return nil, false, fmt.Errorf("snapshot: mapping %s: %w", path, err)
	}
	return data, mapped, nil
}

// openMapped opens the region mapPath returned, unmapping it on failure.
func openMapped(data []byte, mapped bool, path string) (*Handle, error) {
	h, err := openData(data, mapped, path)
	if err != nil {
		if mapped {
			munmap(data)
		}
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if mapped {
		// Unmap when the handle becomes unreachable — dropped serving
		// states must not accumulate address space across reloads.
		runtime.SetFinalizer(h, func(h *Handle) { h.Close() })
	}
	return h, nil
}

// OpenBytes opens a v2 snapshot held in memory (an uploaded corpus body).
// The bytes are copied once into an 8-byte-aligned buffer so the typed
// section views are valid on every architecture; data is not retained.
func OpenBytes(data []byte) (*Handle, error) {
	aligned := alignedBuf(len(data))
	copy(aligned, data)
	return openData(aligned, false, "")
}

// FromMappings lays the mappings out as a v2 image in process memory and
// opens it — how synthesis output, rebuilt and ingested mapping sets and
// transcoded v1 files become servable. The image is byte-identical to what
// WriteV2 writes for the same mappings; they are not retained or mutated.
func FromMappings(maps []*mapping.Mapping) (*Handle, error) {
	data, err := encodeV2(maps)
	if err != nil {
		return nil, err
	}
	return openData(data, false, "")
}

// alignedBuf returns an n-byte buffer whose base address is 8-byte aligned
// (backed by a []uint64 allocation).
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

func le32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
func le64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// openData parses and validates the header + section table of a v2 region.
func openData(data []byte, mapped bool, path string) (*Handle, error) {
	if len(data) < v2TableEnd+4 {
		return nil, ErrTruncated
	}
	if [4]byte(data[:4]) != Magic {
		return nil, ErrMagic
	}
	if data[4] != Version2 {
		return nil, fmt.Errorf("%w: %d (Open wants v2; use Load for v1)", ErrVersion, data[4])
	}
	if got := le32(data, 8); got != v2NumSections {
		return nil, fmt.Errorf("%w: section count %d, want %d", ErrLayout, got, v2NumSections)
	}
	if got := le32(data, 12); got != v2RecordSize {
		return nil, fmt.Errorf("%w: record size %d, want %d", ErrLayout, got, v2RecordSize)
	}
	if got := le64(data, 16); got != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header file size %d, actual %d", ErrTruncated, got, len(data))
	}
	wantCRC := le32(data, 60)
	c := crc32.ChecksumIEEE(data[:60])
	c = crc32.Update(c, crc32.IEEETable, data[v2HeaderSize:v2TableEnd])
	if c != wantCRC {
		return nil, fmt.Errorf("%w: header/section-table crc %08x, want %08x", ErrChecksum, c, wantCRC)
	}

	h := &Handle{
		data:   data,
		mapped: mapped,
		path:   path,
		n:      int(le64(data, 24)),
		pairN:  int(le64(data, 32)),
	}
	prevEnd := uint64(v2TableEnd)
	for i := 0; i < v2NumSections; i++ {
		e := v2HeaderSize + i*v2SectionEntry
		typ := le32(data, e)
		if typ != uint32(i+1) {
			return nil, fmt.Errorf("%w: section %d has type %d, want %d", ErrLayout, i, typ, i+1)
		}
		off, ln := le64(data, e+8), le64(data, e+16)
		if off%8 != 0 {
			return nil, fmt.Errorf("%w: section %s offset %d not 8-byte aligned", ErrLayout, SectionName(i+1), off)
		}
		if off < prevEnd || off+ln < off || off+ln > uint64(len(data))-4 {
			return nil, fmt.Errorf("%w: section %s [%d, %d) overlaps or exceeds file", ErrLayout, SectionName(i+1), off, off+ln)
		}
		h.secs[i+1] = span{off: off, ln: ln, crc: le32(data, e+24)}
		prevEnd = off + ln
	}
	sec := func(typ int) []byte {
		s := h.secs[typ]
		return data[s.off : s.off+s.ln : s.off+s.ln]
	}
	h.arena = sec(secArena)
	h.records = sec(secRecords)
	h.pairs = sec(secPairs)
	h.ints = sec(secInts)
	h.strrefs = sec(secStrRefs)
	h.surface = sec(secSurface)
	h.terms = sec(secTerms)
	if h.n < 0 || uint64(h.n)*v2RecordSize != h.secs[secRecords].ln {
		return nil, fmt.Errorf("%w: %d mappings but records section is %d bytes", ErrLayout, h.n, h.secs[secRecords].ln)
	}
	if h.secs[secBloom].ln%8 != 0 || h.secs[secPostings].ln%4 != 0 || h.secs[secTerms].ln%v2TermEntry != 0 {
		return nil, fmt.Errorf("%w: misaligned bloom/terms/postings section length", ErrLayout)
	}
	if b := sec(secBloom); len(b) > 0 {
		h.bloom = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	if p := sec(secPostings); len(p) > 0 {
		h.postings = unsafe.Slice((*int32)(unsafe.Pointer(&p[0])), len(p)/4)
	}
	h.maps = make([]atomic.Pointer[mapping.Mapping], h.n)
	return h, nil
}

// Close unmaps the region. Strings, postings and mappings served from this
// handle are invalid afterwards; in-memory handles (FromMappings,
// OpenBytes) keep their data alive through any strings still referencing
// it and Close is a no-op for them. Close is idempotent.
func (h *Handle) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(h, nil)
	if h.mapped {
		data := h.data
		h.data, h.arena, h.records, h.pairs, h.ints = nil, nil, nil, nil, nil
		h.strrefs, h.surface, h.terms, h.bloom, h.postings = nil, nil, nil, nil, nil
		return munmap(data)
	}
	return nil
}

// Path returns the file the handle maps ("" for in-memory images).
func (h *Handle) Path() string { return h.path }

// Mapped reports whether the handle is backed by an mmapped file region
// (Open) rather than an image in process memory (FromMappings,
// Prefix.Image, OpenBytes).
func (h *Handle) Mapped() bool { return h.mapped }

// MappedBytes returns the size of the backing image in bytes, mmapped or
// in process memory.
func (h *Handle) MappedBytes() int64 { return int64(len(h.data)) }

// Bytes returns the raw v2 file image backing the handle — header,
// sections and footer exactly as written. The serving layer ships these
// bytes to replicas (GET /v1/corpora/{name}/snapshot) without re-reading
// the file. Callers must treat the slice as read-only and must not retain
// it past Close.
func (h *Handle) Bytes() []byte { return h.data }

// Pairs returns the total pair count across all mappings (from the header).
func (h *Handle) Pairs() int { return h.pairN }

// Sections lists the section table for inspection tools.
func (h *Handle) Sections() []SectionInfo {
	out := make([]SectionInfo, 0, v2NumSections)
	for t := 1; t <= v2NumSections; t++ {
		s := h.secs[t]
		out = append(out, SectionInfo{Type: t, Name: SectionName(t), Offset: s.off, Length: s.ln, CRC: s.crc})
	}
	return out
}

// ---- index.Source ----

// Len returns the number of mappings.
func (h *Handle) Len() int { return h.n }

// record returns the i-th fixed record; i is trusted: openData validated
// [0, h.n) against the section length, and index.MappingIndex drops any
// position outside it that an unverified postings section hands back.
func (h *Handle) record(i int) []byte {
	return h.records[i*v2RecordSize : (i+1)*v2RecordSize]
}

// str resolves an arena reference, returning "" on out-of-range refs
// rather than over-reading.
func (h *Handle) str(off, ln uint32) string {
	if ln == 0 || uint64(off)+uint64(ln) > uint64(len(h.arena)) {
		return ""
	}
	return unsafe.String(&h.arena[off], int(ln))
}

// bloomAt probes the filter whose parameters sit at rec[field:].
func (h *Handle) bloomAt(rec []byte, field int, hash index.Hash) bool {
	off, mBits, k := le32(rec, field), le32(rec, field+4), le32(rec, field+8)
	words := (uint64(mBits) + 63) / 64
	w0 := uint64(off) / 8
	if off%8 != 0 || w0+words > uint64(len(h.bloom)) {
		return false
	}
	return index.BloomContains(h.bloom[w0:w0+words], uint64(mBits), int(k), hash)
}

// MayContainRight probes mapping i's persisted right-column Bloom filter.
func (h *Handle) MayContainRight(i int, hash index.Hash) bool {
	return h.bloomAt(h.record(i), recRBloom, hash)
}

// termStr returns the j-th term's string.
func (h *Handle) termStr(j int) string {
	e := j * v2TermEntry
	return h.str(le32(h.terms, e), le32(h.terms, e+4))
}

// Postings returns the ascending mapping positions whose left column
// contains nl, straight out of the mapped postings section.
func (h *Handle) Postings(nl string) []int32 {
	n := len(h.terms) / v2TermEntry
	j := sort.Search(n, func(j int) bool { return h.termStr(j) >= nl })
	if j >= n || h.termStr(j) != nl {
		return nil
	}
	e := j * v2TermEntry
	off, cnt := le32(h.terms, e+8), le32(h.terms, e+12)
	if off%4 != 0 {
		return nil
	}
	p0 := uint64(off) / 4
	if p0+uint64(cnt) > uint64(len(h.postings)) {
		return nil
	}
	return h.postings[p0 : p0+uint64(cnt)]
}

// refAt resolves the j-th strref of a strref run starting at byte offset
// off in the strrefs section.
func (h *Handle) refAt(off uint32, j int) (uint32, uint32, bool) {
	e := uint64(off) + uint64(j)*v2StrRef
	if e+v2StrRef > uint64(len(h.strrefs)) {
		return 0, 0, false
	}
	return le32(h.strrefs, int(e)), le32(h.strrefs, int(e)+4), true
}

// inVals binary-searches the sorted value table at rec[field:] for nl.
func (h *Handle) inVals(rec []byte, field int, nl string) bool {
	off, cnt := le32(rec, field), int(le32(rec, field+4))
	if uint64(off)+uint64(cnt)*v2StrRef > uint64(len(h.strrefs)) {
		return false
	}
	j := sort.Search(cnt, func(j int) bool {
		o, l, ok := h.refAt(off, j)
		if !ok {
			return true
		}
		return h.str(o, l) >= nl
	})
	if j >= cnt {
		return false
	}
	o, l, ok := h.refAt(off, j)
	return ok && h.str(o, l) == nl
}

// InLeft reports exactly whether mapping i's left column contains nl.
func (h *Handle) InLeft(i int, nl string) bool { return h.inVals(h.record(i), recLVals, nl) }

// InRight reports exactly whether mapping i's right column contains nl.
func (h *Handle) InRight(i int, nl string) bool { return h.inVals(h.record(i), recRVals, nl) }

// Mapping materializes the i-th mapping on first access and caches it. The
// mapping's strings are zero-copy views into the region; its derived lookup
// structures are rebuilt by mapping.Restore — the same routine the v1
// decoder uses, so a mapping answers identically however it was stored.
func (h *Handle) Mapping(i int) *mapping.Mapping {
	if m := h.maps[i].Load(); m != nil {
		return m
	}
	m := h.materialize(i)
	if !h.maps[i].CompareAndSwap(nil, m) {
		return h.maps[i].Load()
	}
	return m
}

// intsAt decodes an int32 run from the ints section into []int.
func (h *Handle) intsAt(off uint32, cnt int) []int {
	if off%4 != 0 || uint64(off)+uint64(cnt)*4 > uint64(len(h.ints)) {
		return nil
	}
	out := make([]int, cnt)
	for j := range out {
		out[j] = int(int32(le32(h.ints, int(off)+j*4)))
	}
	return out
}

func (h *Handle) materialize(i int) *mapping.Mapping {
	rec := h.record(i)
	id := int(int64(le64(rec, recID)))

	// Counts come from the file; clamp runs to their sections before any
	// count-sized allocation so corrupt records degrade to empty fields
	// instead of panicking or ballooning the heap.
	pOff, pCnt := le32(rec, recPair), int(le32(rec, recPair+4))
	if uint64(pOff)+uint64(pCnt)*v2PairEntry > uint64(len(h.pairs)) {
		pCnt = 0
	}
	pairs := make([]table.Pair, 0, pCnt)
	supports := make([]int, 0, pCnt)
	for j := 0; j < pCnt; j++ {
		e := int(pOff) + j*v2PairEntry
		pairs = append(pairs, table.Pair{
			L: h.str(le32(h.pairs, e), le32(h.pairs, e+4)),
			R: h.str(le32(h.pairs, e+8), le32(h.pairs, e+12)),
		})
		supports = append(supports, int(le32(h.pairs, e+16)))
	}

	tableIDs := h.intsAt(le32(rec, recTables), int(le32(rec, recTables+4)))
	candIDs := h.intsAt(le32(rec, recCands), int(le32(rec, recCands+4)))

	dOff, dCnt := le32(rec, recDomains), int(le32(rec, recDomains+4))
	if uint64(dOff)+uint64(dCnt)*v2StrRef > uint64(len(h.strrefs)) {
		dCnt = 0
	}
	domains := make([]string, 0, dCnt)
	for j := 0; j < dCnt; j++ {
		o, l, ok := h.refAt(dOff, j)
		if !ok {
			break
		}
		domains = append(domains, h.str(o, l))
	}

	sOff, sCnt := le32(rec, recSurface), int(le32(rec, recSurface+4))
	if uint64(sOff)+uint64(sCnt)*v2SurfEntry > uint64(len(h.surface)) {
		sCnt = 0
	}
	surfaceR := make(map[string]string, sCnt)
	for j := 0; j < sCnt; j++ {
		e := int(sOff) + j*v2SurfEntry
		nr := h.str(le32(h.surface, e), le32(h.surface, e+4))
		surfaceR[nr] = h.str(le32(h.surface, e+8), le32(h.surface, e+12))
	}

	return mapping.Restore(id, pairs, supports, tableIDs, domains, candIDs, surfaceR)
}

// Materialize returns every mapping, for consumers that walk the whole set
// (Decode, delta building, base-less ingestion). Like Mapping, the strings
// are views into the region and must not outlive the Handle.
func (h *Handle) Materialize() []*mapping.Mapping {
	out := make([]*mapping.Mapping, h.n)
	for i := range out {
		out[i] = h.Mapping(i)
	}
	return out
}

// Verify performs the full integrity check Open deliberately skips: the
// whole-file footer CRC, every section's CRC, and a structural walk
// asserting every record's offsets, counts and string references lie
// within their sections. It reads the entire file (paging it all in), so
// serving paths call it only when asked; corruption that Verify would
// catch degrades bounded accessors to empty answers, never panics.
func (h *Handle) Verify() error {
	data := h.data
	if got, want := crc32.ChecksumIEEE(data[:len(data)-4]), binary.LittleEndian.Uint32(data[len(data)-4:]); got != want {
		return fmt.Errorf("%w: file crc %08x, want %08x", ErrChecksum, got, want)
	}
	for t := 1; t <= v2NumSections; t++ {
		s := h.secs[t]
		if got := crc32.ChecksumIEEE(data[s.off : s.off+s.ln]); got != s.crc {
			return fmt.Errorf("%w: section %s crc %08x, want %08x", ErrChecksum, SectionName(t), got, s.crc)
		}
	}
	checkRef := func(what string, i int, off, ln uint32) error {
		if ln > 0 && uint64(off)+uint64(ln) > uint64(len(h.arena)) {
			return fmt.Errorf("%w: mapping %d: %s string [%d,+%d) exceeds arena (%d bytes)",
				ErrLayout, i, what, off, ln, len(h.arena))
		}
		return nil
	}
	checkRun := func(what string, i int, off, cnt uint32, stride, secLen int) error {
		if uint64(off)+uint64(cnt)*uint64(stride) > uint64(secLen) {
			return fmt.Errorf("%w: mapping %d: %s run [%d,+%d×%d) exceeds section (%d bytes)",
				ErrLayout, i, what, off, cnt, stride, secLen)
		}
		return nil
	}
	for i := 0; i < h.n; i++ {
		rec := h.record(i)
		pOff, pCnt := le32(rec, recPair), le32(rec, recPair+4)
		if err := checkRun("pairs", i, pOff, pCnt, v2PairEntry, len(h.pairs)); err != nil {
			return err
		}
		for j := 0; j < int(pCnt); j++ {
			e := int(pOff) + j*v2PairEntry
			if err := checkRef("pair left", i, le32(h.pairs, e), le32(h.pairs, e+4)); err != nil {
				return err
			}
			if err := checkRef("pair right", i, le32(h.pairs, e+8), le32(h.pairs, e+12)); err != nil {
				return err
			}
		}
		for _, f := range []struct {
			what  string
			field int
		}{{"tables", recTables}, {"candidates", recCands}} {
			off, cnt := le32(rec, f.field), le32(rec, f.field+4)
			if off%4 != 0 {
				return fmt.Errorf("%w: mapping %d: %s offset %d not 4-byte aligned", ErrLayout, i, f.what, off)
			}
			if err := checkRun(f.what, i, off, cnt, 4, len(h.ints)); err != nil {
				return err
			}
		}
		for _, f := range []struct {
			what  string
			field int
		}{{"domains", recDomains}, {"left values", recLVals}, {"right values", recRVals}} {
			off, cnt := le32(rec, f.field), le32(rec, f.field+4)
			if err := checkRun(f.what, i, off, cnt, v2StrRef, len(h.strrefs)); err != nil {
				return err
			}
			for j := 0; j < int(cnt); j++ {
				o, l, _ := h.refAt(off, j)
				if err := checkRef(f.what, i, o, l); err != nil {
					return err
				}
			}
		}
		sOff, sCnt := le32(rec, recSurface), le32(rec, recSurface+4)
		if err := checkRun("surface", i, sOff, sCnt, v2SurfEntry, len(h.surface)); err != nil {
			return err
		}
		for j := 0; j < int(sCnt); j++ {
			e := int(sOff) + j*v2SurfEntry
			if err := checkRef("surface key", i, le32(h.surface, e), le32(h.surface, e+4)); err != nil {
				return err
			}
			if err := checkRef("surface form", i, le32(h.surface, e+8), le32(h.surface, e+12)); err != nil {
				return err
			}
		}
		for _, f := range []struct {
			what  string
			field int
		}{{"left bloom", recLBloom}, {"right bloom", recRBloom}} {
			off, mBits := le32(rec, f.field), le32(rec, f.field+4)
			words := (uint64(mBits) + 63) / 64
			if off%8 != 0 || uint64(off)/8+words > uint64(len(h.bloom)) {
				return fmt.Errorf("%w: mapping %d: %s words [%d,+%d) exceed bloom section", ErrLayout, i, f.what, off, words)
			}
		}
	}
	nTerms := len(h.terms) / v2TermEntry
	prev := ""
	for j := 0; j < nTerms; j++ {
		e := j * v2TermEntry
		if err := checkRef("term", j, le32(h.terms, e), le32(h.terms, e+4)); err != nil {
			return err
		}
		s := h.termStr(j)
		if j > 0 && s <= prev {
			return fmt.Errorf("%w: term table not strictly sorted at entry %d (%q after %q)", ErrLayout, j, s, prev)
		}
		prev = s
		off, cnt := le32(h.terms, e+8), le32(h.terms, e+12)
		if off%4 != 0 || uint64(off)/4+uint64(cnt) > uint64(len(h.postings)) {
			return fmt.Errorf("%w: term %q postings [%d,+%d) exceed postings section", ErrLayout, s, off, cnt)
		}
		p := h.postings[off/4 : off/4+cnt]
		for k, id := range p {
			if id < 0 || int(id) >= h.n || (k > 0 && id <= p[k-1]) {
				return fmt.Errorf("%w: term %q postings not ascending in-range mapping positions", ErrLayout, s)
			}
		}
	}
	return nil
}
