package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
)

// strRef is an (offset, length) reference into the string arena.
type strRef struct{ off, ln uint32 }

// Prefix is an encoded run of leading mappings that images append to: the
// record sections (arena through bloom) with their CRCs, the intern table
// and the sorted term list with postings. Image encodes only the mappings
// after it, so a corpus whose first mappings never change is encoded once,
// not on every publish. A Prefix is immutable and safe for concurrent use.
//
// It owns every string it retains: intern keys and terms are views into
// its own copy of the arena, never into the mappings it was built from, so
// it stays valid after the image those mappings came from is unmapped.
type Prefix struct {
	sec      [v2NumSections + 1][]byte // by section type; terms and postings stay empty
	crc      [v2NumSections + 1]uint32
	interned map[string]strRef
	terms    []prefixTerm // ascending by s
	n, pairN int
}

// prefixTerm is one inverted-index term of a Prefix with its postings,
// already encoded as the postings section stores them.
type prefixTerm struct {
	s    string
	ref  strRef
	post []byte
}

// emptyPrefix is the base of a whole image: encodeV2 is Image over it.
var emptyPrefix = &Prefix{}

// NewPrefix encodes maps as the leading mappings of later images:
// p.Image(tail) is byte-identical to WriteV2(maps ++ tail). The mappings
// are not retained or mutated.
func NewPrefix(maps []*mapping.Mapping) (*Prefix, error) {
	b := newBuilder(emptyPrefix)
	b.addMappings(maps)
	if b.err != nil {
		return nil, b.err
	}
	terms := b.sortedTerms()
	p := &Prefix{terms: make([]prefixTerm, len(terms)), n: b.n, pairN: b.pairN}
	total := 0
	for _, t := range terms {
		total += len(b.inverted[t])
	}
	postings := make([]byte, 0, 4*total) // one allocation the terms share
	for i, t := range terms {
		start := len(postings)
		for _, pos := range b.inverted[t] {
			postings = put32(postings, uint32(pos))
		}
		p.terms[i] = prefixTerm{ref: b.intern(t), post: postings[start:len(postings):len(postings)]}
	}
	for t := secArena; t <= secBloom; t++ {
		p.sec[t] = bytes.Clone(b.sec[t])
		p.crc[t] = crc32.ChecksumIEEE(p.sec[t])
	}
	// Re-key onto the prefix's own arena: the builder's keys are the
	// callers' strings, which may be views into an image about to go away.
	arena := p.sec[secArena]
	view := func(r strRef) string {
		if r.ln == 0 {
			return ""
		}
		return unsafe.String(&arena[r.off], int(r.ln))
	}
	p.interned = make(map[string]strRef, len(b.interned))
	for _, r := range b.interned {
		p.interned[view(r)] = r
	}
	for i := range p.terms {
		p.terms[i].s = view(p.terms[i].ref)
	}
	return p, nil
}

// Image encodes tail after the prefix's mappings and opens the result, an
// image byte-identical to FromMappings(prefix mappings ++ tail). Its cost is
// one copy of the prefix's bytes plus the encoding of tail.
func (p *Prefix) Image(tail []*mapping.Mapping) (*Handle, error) {
	data, err := p.encode(tail)
	if err != nil {
		return nil, err
	}
	return openData(data, false, "")
}

// encode lays the prefix's mappings followed by tail out as a complete v2
// file.
func (p *Prefix) encode(tail []*mapping.Mapping) ([]byte, error) {
	b := newBuilder(p)
	b.addMappings(tail)
	return b.finish()
}

// encodeV2 lays the mappings out as a complete v2 snapshot file. The
// output is deterministic for a given input: interning order, sorted
// surface/term tables and first-seen postings order are all fixed.
func encodeV2(maps []*mapping.Mapping) ([]byte, error) {
	return emptyPrefix.encode(maps)
}

// v2Builder encodes mapping records after those of its base prefix. Its
// section buffers hold only the bytes after the base's, and offsets
// written into records count from the start of the whole section. Offsets
// within sections are u32, so every section is capped at 4 GiB and the
// builder errors past that instead of writing wrapped offsets.
type v2Builder struct {
	base     *Prefix
	sec      [v2NumSections + 1][]byte // by section type
	interned map[string]strRef         // strings the base does not hold
	inverted map[string][]int32        // normalized left value → positions
	n, pairN int                       // mappings and pairs after the base's
	err      error
}

func newBuilder(base *Prefix) *v2Builder {
	return &v2Builder{base: base, interned: make(map[string]strRef), inverted: make(map[string][]int32)}
}

func (b *v2Builder) intern(s string) strRef {
	if s == "" {
		return strRef{}
	}
	if r, ok := b.base.interned[s]; ok {
		return r
	}
	if r, ok := b.interned[s]; ok {
		return r
	}
	if len(b.base.sec[secArena])+len(b.sec[secArena])+len(s) > math.MaxUint32 {
		b.fail(secArena)
		return strRef{}
	}
	r := strRef{off: b.off32(secArena), ln: uint32(len(s))}
	b.sec[secArena] = append(b.sec[secArena], s...)
	b.interned[s] = r
	return r
}

func (b *v2Builder) fail(typ int) {
	if b.err == nil {
		b.err = fmt.Errorf("snapshot: v2 section %s exceeds 4 GiB", SectionName(typ))
	}
}

// off32 returns the current length of a section, base included, as a u32
// offset, flagging overflow.
func (b *v2Builder) off32(typ int) uint32 {
	n := len(b.base.sec[typ]) + len(b.sec[typ])
	if n > math.MaxUint32 {
		b.fail(typ)
		return 0
	}
	return uint32(n)
}

func put32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// putRefs appends strRef entries for ss to the strrefs section and returns
// the run's (offset, count).
func (b *v2Builder) putRefs(ss []string) (uint32, uint32) {
	off := b.off32(secStrRefs)
	for _, s := range ss {
		r := b.intern(s)
		b.sec[secStrRefs] = put32(put32(b.sec[secStrRefs], r.off), r.ln)
	}
	return off, uint32(len(ss))
}

// putInts appends ids as int32s to the ints section.
func (b *v2Builder) putInts(ids []int) (uint32, uint32) {
	off := b.off32(secInts)
	for _, id := range ids {
		if id < math.MinInt32 || id > math.MaxInt32 {
			if b.err == nil {
				b.err = fmt.Errorf("snapshot: id %d overflows int32", id)
			}
			id = 0
		}
		b.sec[secInts] = put32(b.sec[secInts], uint32(int32(id)))
	}
	return off, uint32(len(ids))
}

// putBloom serializes a filter's words and returns (byte offset, bits, k).
// Word-only appends keep every filter 8-byte aligned within the section.
func (b *v2Builder) putBloom(f *index.Bloom) (uint32, uint32, uint32) {
	off := b.off32(secBloom)
	for _, w := range f.Words() {
		b.sec[secBloom] = binary.LittleEndian.AppendUint64(b.sec[secBloom], w)
	}
	if f.Bits() > math.MaxUint32 {
		b.fail(secBloom)
	}
	return off, uint32(f.Bits()), uint32(f.K())
}

// addMappings appends one record per mapping, with its pairs, ints,
// strrefs, surface entries and Bloom filters, and indexes its normalized
// left values under their positions, which continue after the base's.
func (b *v2Builder) addMappings(maps []*mapping.Mapping) {
	for _, m := range maps {
		pos := int32(b.base.n + b.n)
		rec := make([]byte, 0, v2RecordSize)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(int64(m.ID)))

		pOff := b.off32(secPairs)
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
			b.sec[secPairs] = put32(put32(put32(put32(put32(b.sec[secPairs], l.off), l.ln), r.off), r.ln), uint32(s))
		}
		rec = put32(put32(rec, pOff), uint32(len(m.Pairs)))
		b.pairN += len(m.Pairs)

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
		sOff := b.off32(secSurface)
		for _, k := range keys {
			kr, vr := b.intern(k), b.intern(sr[k])
			b.sec[secSurface] = put32(put32(put32(put32(b.sec[secSurface], kr.off), kr.ln), vr.off), vr.ln)
		}
		rec = put32(put32(rec, sOff), uint32(len(keys)))

		lb := index.NewBloom(len(m.Pairs), 0.01)
		rb := index.NewBloom(len(m.Pairs), 0.01)
		for _, nl := range left {
			lb.Add(nl)
			b.inverted[nl] = append(b.inverted[nl], pos)
		}
		for _, nr := range right {
			rb.Add(nr)
		}
		lbOff, lbBits, lbK := b.putBloom(lb)
		rec = put32(put32(put32(rec, lbOff), lbBits), lbK)
		rbOff, rbBits, rbK := b.putBloom(rb)
		rec = put32(put32(put32(rec, rbOff), rbBits), rbK)

		if len(rec) != v2RecordSize && b.err == nil {
			b.err = fmt.Errorf("snapshot: internal error: record size %d, want %d", len(rec), v2RecordSize)
		}
		b.sec[secRecords] = append(b.sec[secRecords], rec...)
		b.n++
	}
}

// sortedTerms returns the builder's inverted-index terms in ascending order.
func (b *v2Builder) sortedTerms() []string {
	terms := make([]string, 0, len(b.inverted))
	for t := range b.inverted {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// finish lays out the terms and postings sections, merging the base's
// sorted terms with the builder's (a term in both lists the base's
// positions first, so every run stays ascending), and assembles the file.
func (b *v2Builder) finish() ([]byte, error) {
	base, tail := b.base.terms, b.sortedTerms()
	terms := make([]byte, 0, (len(base)+len(tail))*v2TermEntry)
	var postings []byte
	emit := func(r strRef, head []byte, rest []int32) {
		if len(postings) > math.MaxUint32 {
			b.fail(secPostings)
		}
		off := uint32(len(postings))
		postings = append(postings, head...)
		for _, pos := range rest {
			postings = put32(postings, uint32(pos))
		}
		terms = put32(put32(put32(put32(terms, r.off), r.ln), off), uint32(len(head)/4+len(rest)))
	}
	for i, j := 0, 0; i < len(base) || j < len(tail); {
		switch {
		case j == len(tail) || (i < len(base) && base[i].s < tail[j]):
			emit(base[i].ref, base[i].post, nil)
			i++
		case i == len(base) || tail[j] < base[i].s:
			emit(b.intern(tail[j]), nil, b.inverted[tail[j]])
			j++
		default:
			emit(base[i].ref, base[i].post, b.inverted[tail[j]])
			i, j = i+1, j+1
		}
	}
	b.sec[secTerms], b.sec[secPostings] = terms, postings
	if b.err != nil {
		return nil, b.err
	}

	// Assemble: header, table, page-aligned sections, footer. A section is
	// the base's bytes followed by the builder's.
	offs := [v2NumSections + 1]uint64{}
	pos := uint64(v2TableEnd)
	for t := 1; t <= v2NumSections; t++ {
		pos = (pos + v2Align - 1) / v2Align * v2Align
		offs[t] = pos
		pos += uint64(len(b.base.sec[t]) + len(b.sec[t]))
	}
	fileSize := pos + 4

	out := alignedBuf(int(fileSize)) // FromMappings serves typed views over it
	copy(out[:4], Magic[:])
	out[4] = Version2
	binary.LittleEndian.PutUint32(out[8:], v2NumSections)
	binary.LittleEndian.PutUint32(out[12:], v2RecordSize)
	binary.LittleEndian.PutUint64(out[16:], fileSize)
	binary.LittleEndian.PutUint64(out[24:], uint64(b.base.n+b.n))
	binary.LittleEndian.PutUint64(out[32:], uint64(b.base.pairN+b.pairN))
	for t := 1; t <= v2NumSections; t++ {
		head, rest := b.base.sec[t], b.sec[t]
		e := v2HeaderSize + (t-1)*v2SectionEntry
		binary.LittleEndian.PutUint32(out[e:], uint32(t))
		binary.LittleEndian.PutUint64(out[e+8:], offs[t])
		binary.LittleEndian.PutUint64(out[e+16:], uint64(len(head)+len(rest)))
		binary.LittleEndian.PutUint32(out[e+24:], crc32.Update(b.base.crc[t], crc32.IEEETable, rest))
		copy(out[offs[t]+uint64(copy(out[offs[t]:], head)):], rest)
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
