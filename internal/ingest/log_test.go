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
	"reflect"
	"strings"
	"testing"
)

// faultFile injects one failure into the log file: a short Write (half the
// bytes land, then an error) or a complete Write whose Sync fails.
type faultFile struct {
	logFile
	short, failSync bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.short {
		f.short = false
		n, _ := f.logFile.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return f.logFile.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected fsync failure")
	}
	return f.logFile.Sync()
}

// TestLogFailStop: after a failed append the log refuses further appends
// instead of acknowledging rows replay would lose or renumber, and a
// reopen serves exactly the acknowledged rows.
func TestLogFailStop(t *testing.T) {
	acked := twoColRow("acked.test", [][2]string{{"x", "1"}})
	lost := twoColRow("lost.test", [][2]string{{"y", "2"}})
	later := twoColRow("later.test", [][2]string{{"z", "3"}})
	for _, tc := range []struct {
		name  string
		fault faultFile
	}{
		// (a) the frame is complete on disk but its fsync failed: without
		// the rollback the next append reuses its LSN, and replay serves
		// the unacknowledged row in place of the acknowledged one.
		{"sync failure", faultFile{failSync: true}},
		// (b) half a frame is on disk: without the rollback replay stops
		// at the debris and every later acknowledged row is gone.
		{"short write", faultFile{short: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.mlog")
			lg, err := OpenLog(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lg.Append([]TableRow{acked}); err != nil {
				t.Fatal(err)
			}
			fault := tc.fault
			fault.logFile = lg.f
			lg.f = &fault
			if _, err := lg.Append([]TableRow{lost}); err == nil {
				t.Fatal("append with an injected fault succeeded")
			}
			if lsns, err := lg.Append([]TableRow{later}); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("append after a failure = %v, %v; want ErrLogFailed", lsns, err)
			}
			if lg.Head() != 1 {
				t.Errorf("head = %d after failed appends, want 1", lg.Head())
			}
			lg.Close()

			re, err := OpenLog(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Rows(); !reflect.DeepEqual(got, []TableRow{acked}) || re.Truncated() != 0 {
				t.Fatalf("reopened rows = %+v (truncated %d), want only the acknowledged row", got, re.Truncated())
			}
			if lsns, err := re.Append([]TableRow{later}); err != nil || lsns[0] != 2 {
				t.Fatalf("append after reopen = %v, %v; want LSN 2", lsns, err)
			}
		})
	}
}

// FuzzOpenLog: whatever follows the magic, OpenLog either fails or serves
// exactly the intact prefix of frames — and that log takes an append at
// head+1 which survives another reopen.
func FuzzOpenLog(f *testing.F) {
	dir := f.TempDir()
	// frameOf is one row's frame at LSN 1, as Append writes it.
	frameOf := func(r TableRow) []byte {
		path := filepath.Join(dir, "frame.mlog")
		os.Remove(path)
		lg, err := OpenLog(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := lg.Append([]TableRow{r}); err != nil {
			f.Fatal(err)
		}
		lg.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data[len(logMagic):]
	}
	a := frameOf(twoColRow("a.test", [][2]string{{"x", "1"}}))
	b := frameOf(twoColRow("b.test", [][2]string{{"y", "2"}}))
	f.Add([]byte{})
	f.Add(a)
	f.Add(append(append([]byte(nil), a...), b...))            // (a): a second LSN 1
	f.Add(append(append([]byte(nil), b[:len(b)/2]...), a...)) // (b): debris, then a frame
	f.Add(a[:5])

	appended := twoColRow("new.test", [][2]string{{"k", "v"}})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "c.mlog")
		if err := os.WriteFile(path, append(logMagic[:len(logMagic):len(logMagic)], data...), 0o644); err != nil {
			t.Fatal(err)
		}
		lg, err := OpenLog(path)
		if err != nil {
			return
		}
		want := intactPrefix(data)
		if got := lg.Rows(); !reflect.DeepEqual(got, want) || lg.Head() != int64(len(want)) {
			t.Fatalf("replayed %d rows (head %d), intact prefix has %d", len(got), lg.Head(), len(want))
		}
		lsns, err := lg.Append([]TableRow{appended})
		if err != nil || lsns[0] != int64(len(want))+1 {
			t.Fatalf("append = %v, %v; want LSN %d", lsns, err, len(want)+1)
		}
		lg.Close()
		re, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer re.Close()
		if got := re.Rows(); !reflect.DeepEqual(got, append(want, appended)) {
			t.Fatalf("reopened %d rows, want the %d intact plus the appended one", len(got), len(want))
		}
	})
}

// intactPrefix decodes frames by the format's definition, stopping at the
// first one that is torn, fails its CRC or breaks the LSN sequence.
func intactPrefix(data []byte) []TableRow {
	var rows []TableRow
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data)
		if uint64(n) > uint64(len(data)-8) {
			break
		}
		payload := data[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
			break
		}
		var rec logRecord
		if json.Unmarshal(payload, &rec) != nil || rec.LSN != int64(len(rows))+1 {
			break
		}
		rows = append(rows, rec.TableRow)
		data = data[8+n:]
	}
	return rows
}

// TestLogMidCorruptionDeclared: a damaged frame with an intact frame after
// it is not a torn tail. Truncating there would delete an acknowledged row,
// so OpenLog refuses with ErrLogCorrupt, naming the file and the frame's
// offset, and leaves the file byte for byte as it was.
func TestLogMidCorruptionDeclared(t *testing.T) {
	rows := []TableRow{
		twoColRow("a.test", [][2]string{{"x", "1"}}),
		twoColRow("b.test", [][2]string{{"y", "2"}}),
		twoColRow("c.test", [][2]string{{"z", "3"}}),
	}
	path := filepath.Join(t.TempDir(), "c.mlog")
	lg, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := lg.Append([]TableRow{r}); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 2 starts after the magic and frame 1.
	second := len(logMagic) + 8 + int(binary.LittleEndian.Uint32(good[len(logMagic):]))
	for _, tc := range []struct {
		name   string
		damage func([]byte)
	}{
		{"payload byte flipped", func(b []byte) { b[second+8+3] ^= 0xff }},
		{"crc flipped", func(b []byte) { b[second+4] ^= 0x01 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			tc.damage(bad)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			lg, err := OpenLog(path)
			if !errors.Is(err, ErrLogCorrupt) {
				if lg != nil {
					lg.Close()
				}
				t.Fatalf("OpenLog = %v, want ErrLogCorrupt", err)
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, fmt.Sprintf("offset %d", second)) {
				t.Fatalf("error %q does not name the file and offset %d", msg, second)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
				t.Fatal("OpenLog modified a corrupt log it refused")
			}
		})
	}

	// The same damage in the last frame is a torn tail: truncated as before.
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLog(path)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	defer re.Close()
	if re.Head() != 2 || re.Truncated() == 0 {
		t.Fatalf("torn tail: head=%d truncated=%d, want head 2 and bytes cut", re.Head(), re.Truncated())
	}
}
