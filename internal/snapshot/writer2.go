package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
)

// strRef is an (offset, length) reference into the string arena.
type strRef struct{ off, ln uint32 }

// v2Builder accumulates section buffers; offsets within sections are u32,
// so every section is capped at 4 GiB and the builder errors past that
// instead of writing wrapped offsets.
type v2Builder struct {
	arena    []byte
	interned map[string]strRef
	records  []byte
	pairs    []byte
	ints     []byte
	strrefs  []byte
	surface  []byte
	bloom    []byte
	terms    []byte
	postings []byte
	err      error
}

func (b *v2Builder) intern(s string) strRef {
	if s == "" {
		return strRef{}
	}
	if r, ok := b.interned[s]; ok {
		return r
	}
	if len(b.arena)+len(s) > math.MaxUint32 {
		b.fail("string arena")
		return strRef{}
	}
	r := strRef{off: uint32(len(b.arena)), ln: uint32(len(s))}
	b.arena = append(b.arena, s...)
	b.interned[s] = r
	return r
}

func (b *v2Builder) fail(section string) {
	if b.err == nil {
		b.err = fmt.Errorf("snapshot: v2 section %s exceeds 4 GiB", section)
	}
}

// off32 returns the current length of a section buffer as a u32 offset,
// flagging overflow.
func (b *v2Builder) off32(buf []byte, section string) uint32 {
	if len(buf) > math.MaxUint32 {
		b.fail(section)
		return 0
	}
	return uint32(len(buf))
}

func put32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// putRefs appends strRef entries for ss to the strrefs section and returns
// the run's (offset, count).
func (b *v2Builder) putRefs(ss []string) (uint32, uint32) {
	off := b.off32(b.strrefs, "strrefs")
	for _, s := range ss {
		r := b.intern(s)
		b.strrefs = put32(put32(b.strrefs, r.off), r.ln)
	}
	return off, uint32(len(ss))
}

// putInts appends ids as int32s to the ints section.
func (b *v2Builder) putInts(ids []int) (uint32, uint32) {
	off := b.off32(b.ints, "ints")
	for _, id := range ids {
		if id < math.MinInt32 || id > math.MaxInt32 {
			if b.err == nil {
				b.err = fmt.Errorf("snapshot: id %d overflows int32", id)
			}
			id = 0
		}
		b.ints = put32(b.ints, uint32(int32(id)))
	}
	return off, uint32(len(ids))
}

// putBloom serializes a filter's words and returns (byte offset, bits, k).
// Word-only appends keep every filter 8-byte aligned within the section.
func (b *v2Builder) putBloom(f *index.Bloom) (uint32, uint32, uint32) {
	off := b.off32(b.bloom, "bloom")
	for _, w := range f.Words() {
		b.bloom = binary.LittleEndian.AppendUint64(b.bloom, w)
	}
	if f.Bits() > math.MaxUint32 {
		b.fail("bloom")
	}
	return off, uint32(f.Bits()), uint32(f.K())
}

// encodeV2 lays the mappings out as a complete v2 snapshot file. The
// output is deterministic for a given input: interning order, sorted
// surface/term tables and first-seen postings order are all fixed.
func encodeV2(maps []*mapping.Mapping) ([]byte, error) {
	b := &v2Builder{interned: make(map[string]strRef)}
	inverted := make(map[string][]int32)
	pairTotal := 0

	for i, m := range maps {
		rec := make([]byte, 0, v2RecordSize)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(int64(m.ID)))

		pOff := b.off32(b.pairs, "pairs")
		supports := m.PairSupports()
		for j, p := range m.Pairs {
			l, r := b.intern(p.L), b.intern(p.R)
			s := 0
			if j < len(supports) {
				s = supports[j]
			}
			if s < 0 || s > math.MaxUint32 {
				s = 0
			}
			b.pairs = put32(put32(put32(put32(put32(b.pairs, l.off), l.ln), r.off), r.ln), uint32(s))
		}
		rec = put32(put32(rec, pOff), uint32(len(m.Pairs)))
		pairTotal += len(m.Pairs)

		tOff, tCnt := b.putInts(m.TableIDs)
		rec = put32(put32(rec, tOff), tCnt)
		cOff, cCnt := b.putInts(m.CandidateIDs)
		rec = put32(put32(rec, cOff), cCnt)
		dOff, dCnt := b.putRefs(m.Domains)
		rec = put32(put32(rec, dOff), dCnt)

		// Sorted distinct normalized values: the exact-membership tables,
		// the Bloom contents, and (left) the inverted index terms.
		left, right := m.NormalizedValues()
		lvOff, lvCnt := b.putRefs(left)
		rec = put32(put32(rec, lvOff), lvCnt)
		rvOff, rvCnt := b.putRefs(right)
		rec = put32(put32(rec, rvOff), rvCnt)

		sr := m.SurfaceRights()
		keys := make([]string, 0, len(sr))
		for k := range sr {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sOff := b.off32(b.surface, "surface")
		for _, k := range keys {
			kr, vr := b.intern(k), b.intern(sr[k])
			b.surface = put32(put32(put32(put32(b.surface, kr.off), kr.ln), vr.off), vr.ln)
		}
		rec = put32(put32(rec, sOff), uint32(len(keys)))

		lb := index.NewBloom(len(m.Pairs), 0.01)
		rb := index.NewBloom(len(m.Pairs), 0.01)
		for _, nl := range left {
			lb.Add(nl)
			inverted[nl] = append(inverted[nl], int32(i))
		}
		for _, nr := range right {
			rb.Add(nr)
		}
		lbOff, lbBits, lbK := b.putBloom(lb)
		rec = put32(put32(put32(rec, lbOff), lbBits), lbK)
		rbOff, rbBits, rbK := b.putBloom(rb)
		rec = put32(put32(put32(rec, rbOff), rbBits), rbK)

		if len(rec) != v2RecordSize {
			return nil, fmt.Errorf("snapshot: internal error: record size %d, want %d", len(rec), v2RecordSize)
		}
		b.records = append(b.records, rec...)
	}

	terms := make([]string, 0, len(inverted))
	for t := range inverted {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		r := b.intern(t)
		postOff := b.off32(b.postings, "postings")
		for _, pos := range inverted[t] {
			b.postings = put32(b.postings, uint32(pos))
		}
		b.terms = put32(put32(put32(put32(b.terms, r.off), r.ln), postOff), uint32(len(inverted[t])))
	}
	if b.err != nil {
		return nil, b.err
	}

	// Assemble: header, table, page-aligned sections, footer.
	sections := [v2NumSections][]byte{
		b.arena, b.records, b.pairs, b.ints, b.strrefs,
		b.surface, b.bloom, b.terms, b.postings,
	}
	offs := [v2NumSections]uint64{}
	pos := uint64(v2TableEnd)
	for i, s := range sections {
		pos = (pos + v2Align - 1) / v2Align * v2Align
		offs[i] = pos
		pos += uint64(len(s))
	}
	fileSize := pos + 4

	out := alignedBuf(int(fileSize)) // FromMappings serves typed views over it
	copy(out[:4], Magic[:])
	out[4] = Version2
	binary.LittleEndian.PutUint32(out[8:], v2NumSections)
	binary.LittleEndian.PutUint32(out[12:], v2RecordSize)
	binary.LittleEndian.PutUint64(out[16:], fileSize)
	binary.LittleEndian.PutUint64(out[24:], uint64(len(maps)))
	binary.LittleEndian.PutUint64(out[32:], uint64(pairTotal))
	for i, s := range sections {
		e := v2HeaderSize + i*v2SectionEntry
		binary.LittleEndian.PutUint32(out[e:], uint32(i+1))
		binary.LittleEndian.PutUint64(out[e+8:], offs[i])
		binary.LittleEndian.PutUint64(out[e+16:], uint64(len(s)))
		binary.LittleEndian.PutUint32(out[e+24:], crc32.ChecksumIEEE(s))
		copy(out[offs[i]:], s)
	}
	hcrc := crc32.ChecksumIEEE(out[:60])
	hcrc = crc32.Update(hcrc, crc32.IEEETable, out[v2HeaderSize:v2TableEnd])
	binary.LittleEndian.PutUint32(out[60:], hcrc)
	binary.LittleEndian.PutUint32(out[fileSize-4:], crc32.ChecksumIEEE(out[:fileSize-4]))
	return out, nil
}

// WriteV2 encodes the mappings in format v2 (see format2.go) to w.
func WriteV2(w io.Writer, maps []*mapping.Mapping) error {
	data, err := encodeV2(maps)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteFileV2 writes a v2 snapshot atomically: encode to a sibling temp
// file, fsync, then rename over the destination so a crashed writer never
// leaves a half-written snapshot at path.
func WriteFileV2(path string, maps []*mapping.Mapping) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteV2(tmp, maps); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
