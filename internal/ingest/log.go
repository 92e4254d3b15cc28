// Package ingest makes a served corpus mutable: a durable append log of
// ingested tables, and an ingestor that folds logged tables into the
// synthesis pipeline incrementally (dirty compatibility components only)
// and republishes the corpus through the registry's versioned activate
// path. Queries keep serving the previous version while a run is in
// flight; staleness (log head vs applied LSN) is always observable.
package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mapsynth/internal/table"
)

// TableRow is one ingested table as it travels on the wire (one NDJSON line
// of POST /v1/corpora/{name}/tables) and in the append log.
type TableRow struct {
	Domain  string      `json:"domain,omitempty"`
	Title   string      `json:"title,omitempty"`
	Columns []ColumnRow `json:"columns"`
}

// ColumnRow is one column of an ingested table.
type ColumnRow struct {
	Name   string   `json:"name,omitempty"`
	Values []string `json:"values"`
}

// Validate rejects rows the pipeline could never use: no columns, or no
// values anywhere.
func (r *TableRow) Validate() error {
	if len(r.Columns) == 0 {
		return errors.New("table has no columns")
	}
	values := 0
	for _, c := range r.Columns {
		values += len(c.Values)
	}
	if values == 0 {
		return errors.New("table has no values")
	}
	return nil
}

// Table materializes the row as a corpus table with the given dense ID.
func (r *TableRow) Table(id int) *table.Table {
	t := &table.Table{ID: id, Domain: r.Domain, Title: r.Title}
	t.Columns = make([]table.Column, len(r.Columns))
	for i, c := range r.Columns {
		t.Columns[i] = table.Column{Name: c.Name, Values: c.Values}
	}
	return t
}

// logMagic opens every append-log file.
var logMagic = [4]byte{'M', 'L', 'G', '1'}

// logRecord is one framed log entry: the row plus its assigned LSN, kept
// explicit so a replayed log can assert its own integrity.
type logRecord struct {
	LSN int64 `json:"lsn"`
	TableRow
}

// Log is the durable append log of one corpus's ingested tables. Records
// are framed [u32 length][u32 crc32][json payload] after a 4-byte magic;
// appends are batched under one fsync; recovery truncates a torn tail
// instead of refusing to start, and refuses (ErrLogCorrupt) a damaged frame
// with intact ones after it. A failed write or fsync is fail-stop: the
// file is cut back to its last acknowledged byte and every later Append
// returns ErrLogFailed until a restart replays the log. A Log with no
// backing file ("" path) is memory-only — same semantics, no durability.
type Log struct {
	mu        sync.Mutex
	f         logFile
	path      string
	rows      []TableRow
	head      int64
	size      int64 // bytes of magic plus acknowledged frames
	failed    error // set by a failed write or fsync
	truncated int64 // bytes dropped from a torn tail at recovery
}

// logFile is what Append and Close need of the backing file — the seam
// tests use to inject short writes and failed fsyncs.
type logFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// ErrLogCorrupt is returned by OpenLog when a frame in the middle of the log
// fails its CRC, decoding or LSN check while an intact frame follows it:
// damage a crash cannot cause, which replay refuses to truncate away. The
// error names the file and the bad frame's offset; the file is untouched.
var ErrLogCorrupt = errors.New("ingest: append log corrupt")

// ErrLogFailed is returned by the Append whose write or fsync on the log
// file failed, and by every Append after it. The log stays failed until the
// process restarts and replays it; acknowledged rows are intact on disk.
var ErrLogFailed = errors.New("ingest: append log failed (restart to recover)")

// OpenLog opens (or creates) the append log at path, replaying every intact
// record into memory. An empty path returns a memory-only log.
func OpenLog(path string) (*Log, error) {
	l := &Log{path: path}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := l.replay(f); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	return l, nil
}

// replay reads the whole file, validating framing and per-record CRCs. A
// torn tail — a frame that runs past EOF, or a bad one with no intact frame
// after it — is a partial write from a crashed appender and is truncated
// away. A bad frame followed by an intact one is not a crash artifact:
// truncating there would delete acknowledged rows, so replay returns
// ErrLogCorrupt and leaves the file as it is.
func (l *Log) replay(f *os.File) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		// A new file: its directory entry must be as durable as the first
		// acknowledged frame.
		l.size = int64(len(logMagic))
		if _, err := f.Write(logMagic[:]); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		d, err := os.Open(filepath.Dir(l.path))
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
	if len(data) < len(logMagic) || [4]byte(data[:4]) != logMagic {
		return fmt.Errorf("ingest: %s is not an append log (bad magic)", l.path)
	}
	off := int64(len(logMagic))
	buf := data[len(logMagic):]
	for len(buf) > 0 {
		rec, rest, bad, torn := nextFrame(buf)
		if torn {
			break
		}
		if bad == "" && rec.LSN != l.head+1 {
			bad = fmt.Sprintf("lsn %d, want %d", rec.LSN, l.head+1)
		}
		if bad != "" {
			if _, _, next, torn := nextFrame(rest); !torn && next == "" {
				return fmt.Errorf("%w: %s: frame at offset %d: %s, but an intact frame follows it", ErrLogCorrupt, l.path, off, bad)
			}
			break // torn tail: keep the intact prefix
		}
		l.rows = append(l.rows, rec.TableRow)
		l.head++
		off += int64(len(buf) - len(rest))
		buf = rest
	}
	l.size = off
	if rest := int64(len(data)) - off; rest > 0 {
		l.truncated = rest
		if err := f.Truncate(off); err != nil {
			return err
		}
	}
	_, err = f.Seek(0, io.SeekEnd)
	return err
}

// nextFrame parses the frame at the head of buf. torn reports a frame that
// runs past the end of buf; otherwise rest is what follows the frame and
// bad names the check it fails, "" when its CRC matches and its payload
// decodes.
func nextFrame(buf []byte) (rec logRecord, rest []byte, bad string, torn bool) {
	if len(buf) < 8 {
		return rec, nil, "", true
	}
	ln := binary.LittleEndian.Uint32(buf)
	if uint64(ln) > uint64(len(buf)-8) {
		return rec, nil, "", true
	}
	payload, rest := buf[8:8+ln], buf[8+ln:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
		return rec, rest, "crc mismatch", false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, rest, "undecodable record", false
	}
	return rec, rest, "", false
}

// Append assigns the next LSNs to rows, persists them under a single fsync,
// and returns the assigned LSNs in order. Rows are visible to Rows/Head
// only after the fsync — a crash can lose an unacknowledged batch but never
// acknowledge a lost one.
func (l *Log) Append(rows []TableRow) ([]int64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return nil, l.failed
	}
	lsns := make([]int64, len(rows))
	var frame bytes.Buffer
	for i, r := range rows {
		lsn := l.head + int64(i) + 1
		lsns[i] = lsn
		payload, err := json.Marshal(logRecord{LSN: lsn, TableRow: r})
		if err != nil {
			return nil, err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		frame.Write(hdr[:])
		frame.Write(payload)
	}
	if l.f != nil {
		_, err := l.f.Write(frame.Bytes())
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			// Fail-stop: cut the file back to the last acknowledged byte —
			// a torn frame would hide every later frame from replay, and a
			// complete but unacknowledged one would hold the LSNs the next
			// batch reuses.
			l.failed = fmt.Errorf("%w: %v", ErrLogFailed, err)
			return nil, errors.Join(l.failed, l.f.Truncate(l.size))
		}
		l.size += int64(frame.Len())
	}
	l.rows = append(l.rows, rows...)
	l.head += int64(len(rows))
	return lsns, nil
}

// Rows returns every logged row in LSN order. The returned slice is a
// stable snapshot: the log only ever appends.
func (l *Log) Rows() []TableRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rows[:len(l.rows):len(l.rows)]
}

// Head returns the highest assigned LSN (0 when empty).
func (l *Log) Head() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Failed returns the error that failed the log (wrapping ErrLogFailed),
// nil while it is healthy.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Truncated reports how many bytes of torn tail recovery dropped.
func (l *Log) Truncated() int64 { return l.truncated }

// Path returns the backing file path ("" for a memory-only log).
func (l *Log) Path() string { return l.path }

// Close closes the backing file, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
