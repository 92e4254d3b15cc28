// Package snapshot persists synthesized mapping relationships as a compact,
// versioned binary artifact — the index-once/serve-many split: cmd/synthesize
// writes a snapshot at the end of a pipeline run, and cmd/serve (or any other
// consumer) opens it and answers queries from the image without re-running
// synthesis. Format v2 (format2.go) is the one representation written,
// served and shipped between replicas.
//
// Format v1 is a read-only legacy: old files stay loadable forever (Decode;
// Load and LoadBytes transcode them to a v2 image once, at load), but
// nothing writes it any more. Layout (all integers varint-encoded, strings
// length-prefixed):
//
//	magic "MSNP" | version byte 1 | mapping count
//	per mapping:
//	  id | #pairs | (left, right)* | support*          (aligned with pairs)
//	  #tableIDs | delta-encoded sorted table ids
//	  #domains | domain strings
//	  #candidateIDs | delta-encoded sorted candidate ids
//	  #surfaceRights | (normalized right, surface form)*
//	footer: IEEE CRC32 of everything before it, little-endian fixed32
//
// Every format ends in that footer, so truncation and bit-rot are detectable
// and a reader handed an unknown version byte fails with ErrVersion rather
// than misparsing.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mapsynth/internal/mapping"
	"mapsynth/internal/table"
)

// Magic identifies snapshot files.
var Magic = [4]byte{'M', 'S', 'N', 'P'}

// Version is the legacy v1 format version (read-only; see Decode).
const Version byte = 1

var (
	// ErrMagic reports a file that is not a mapping snapshot.
	ErrMagic = errors.New("snapshot: bad magic (not a mapping snapshot)")
	// ErrVersion reports a snapshot written by an unknown format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum reports snapshot payload corruption.
	ErrChecksum = errors.New("snapshot: checksum mismatch (corrupted file)")
	// ErrTruncated reports a snapshot too short to contain its own footer.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrLayout reports a structurally invalid v2 snapshot: bad section
	// table, misaligned or overlapping sections, or out-of-range references.
	ErrLayout = errors.New("snapshot: invalid layout")
)

// ReadFile decodes the snapshot file at path (v1 or v2) onto the heap.
func ReadFile(path string) ([]*mapping.Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses a snapshot held in memory onto the heap, verifying the
// footer checksum before any field is interpreted and dispatching on the
// version byte: v1 decodes the varint stream, v2 opens a copy of the region
// and materializes every mapping. Consumers that want to serve the
// snapshot rather than walk its mappings use Load/LoadBytes.
func Decode(data []byte) ([]*mapping.Mapping, error) {
	if len(data) < len(Magic)+1+4 {
		return nil, ErrTruncated
	}
	payload, footer := data[:len(data)-4], data[len(data)-4:]
	if string(payload[:4]) != string(Magic[:]) {
		return nil, ErrMagic
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(footer); got != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrChecksum, got, want)
	}
	if v := payload[4]; v != Version {
		if v == Version2 {
			h, err := OpenBytes(data)
			if err != nil {
				return nil, err
			}
			return h.Materialize(), nil
		}
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	d := &decoder{buf: payload[5:]}
	count := d.uvarint()
	maps := make([]*mapping.Mapping, 0, min(int(count), 1<<20))
	for i := uint64(0); i < count; i++ {
		m, err := d.mapping()
		if err != nil {
			return nil, err
		}
		maps = append(maps, m)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last mapping", len(d.buf))
	}
	return maps, nil
}

// Loaded is a snapshot opened for serving: always a live v2 Handle, whatever
// was stored. Format records the version found on disk or in the upload
// (1 or 2).
type Loaded struct {
	Format int
	Handle *Handle
}

// isV2 sniffs the magic and version byte of a full v2 image.
func isV2(data []byte) bool {
	return len(data) >= 5 && [4]byte(data[:4]) == Magic && data[4] == Version2
}

// Load opens the snapshot at path for serving. A v2 file is mmapped (O(1),
// no decode); a legacy v1 file is transcoded to a v2 image in process
// memory, so everything downstream sees one representation. The serving
// layer activates corpora through this.
func Load(path string) (Loaded, error) {
	data, mapped, err := mapPath(path)
	if err != nil {
		return Loaded{}, err
	}
	if !isV2(data) {
		ld, err := transcodeV1(data)
		if mapped {
			munmap(data) // Decode copied every string it kept
		}
		return ld, err
	}
	h, err := openMapped(data, mapped, path)
	if err != nil {
		return Loaded{}, err
	}
	return Loaded{Format: 2, Handle: h}, nil
}

// LoadBytes is Load for a snapshot already in memory (an uploaded corpus).
func LoadBytes(data []byte) (Loaded, error) {
	if !isV2(data) {
		return transcodeV1(data)
	}
	h, err := OpenBytes(data)
	if err != nil {
		return Loaded{}, err
	}
	return Loaded{Format: 2, Handle: h}, nil
}

// transcodeV1 decodes a legacy v1 snapshot (CRC-checked by Decode) and lays
// its mappings out as a v2 image.
func transcodeV1(data []byte) (Loaded, error) {
	maps, err := Decode(data)
	if err != nil {
		return Loaded{}, err
	}
	h, err := FromMappings(maps)
	if err != nil {
		return Loaded{}, err
	}
	return Loaded{Format: 1, Handle: h}, nil
}

// decoder is a cursor over the payload with sticky error handling.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) error {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("snapshot: decoding %s: %w", what, d.err)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str() string {
	n := int(d.uvarint())
	if d.err != nil {
		return ""
	}
	if n < 0 || n > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// mapping decodes one v1 mapping body. Every count is bounds-checked
// against the remaining buffer before allocation, so arbitrary bytes fail
// cleanly instead of over-allocating.
func (d *decoder) mapping() (*mapping.Mapping, error) {
	id := int(d.uvarint())
	np := int(d.uvarint())
	if d.err != nil || np < 0 || np > len(d.buf) {
		return nil, d.fail("pair count")
	}
	pairs := make([]table.Pair, np)
	for j := range pairs {
		pairs[j].L = d.str()
		pairs[j].R = d.str()
	}
	supports := make([]int, np)
	for j := range supports {
		supports[j] = int(d.uvarint())
	}
	tableIDs := d.ints()
	nd := int(d.uvarint())
	if d.err != nil || nd < 0 || nd > len(d.buf)+1 {
		return nil, d.fail("domain count")
	}
	domains := make([]string, nd)
	for j := range domains {
		domains[j] = d.str()
	}
	candidateIDs := d.ints()
	ns := int(d.uvarint())
	if d.err != nil || ns < 0 || ns > len(d.buf)+1 {
		return nil, d.fail("surface count")
	}
	surfaceR := make(map[string]string, ns)
	for j := 0; j < ns; j++ {
		k := d.str()
		surfaceR[k] = d.str()
	}
	if d.err != nil {
		return nil, d.fail("mapping body")
	}
	return mapping.Restore(id, pairs, supports, tableIDs, domains, candidateIDs, surfaceR), nil
}

func (d *decoder) ints() []int {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > len(d.buf)+1 {
		if d.err == nil {
			d.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	out := make([]int, n)
	prev := 0
	for i := range out {
		prev += int(d.uvarint())
		out[i] = prev
	}
	return out
}
