package ingest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

func twoColRow(domain string, pairs [][2]string) TableRow {
	r := TableRow{Domain: domain, Columns: []ColumnRow{{Name: "l"}, {Name: "r"}}}
	for _, p := range pairs {
		r.Columns[0].Values = append(r.Columns[0].Values, p[0])
		r.Columns[1].Values = append(r.Columns[1].Values, p[1])
	}
	return r
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.mlog")
	lg, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []TableRow{
		twoColRow("a.test", [][2]string{{"x", "1"}, {"y", "2"}}),
		twoColRow("b.test", [][2]string{{"p", "q"}}),
	}
	lsns, err := lg.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 2 || lsns[0] != 1 || lsns[1] != 2 {
		t.Fatalf("lsns = %v, want [1 2]", lsns)
	}
	if _, err := lg.Append(rows[:1]); err != nil {
		t.Fatal(err)
	}
	if lg.Head() != 3 {
		t.Fatalf("head = %d, want 3", lg.Head())
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Head() != 3 || len(re.Rows()) != 3 {
		t.Fatalf("replayed head=%d rows=%d, want 3/3", re.Head(), len(re.Rows()))
	}
	got := re.Rows()[1]
	if got.Domain != "b.test" || len(got.Columns) != 2 || got.Columns[0].Values[0] != "p" {
		t.Fatalf("replayed row mismatch: %+v", got)
	}
	if next, err := re.Append(rows[:1]); err != nil || next[0] != 4 {
		t.Fatalf("append after replay: lsn=%v err=%v, want [4]", next, err)
	}
}

func TestLogTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.mlog")
	lg, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append([]TableRow{
		twoColRow("a.test", [][2]string{{"x", "1"}}),
		twoColRow("b.test", [][2]string{{"y", "2"}}),
	}); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	// Simulate a torn write: append half a frame, then garbage bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), 0x40, 0x00, 0x00, 0x00, 0xde, 0xad)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Head() != 2 {
		t.Fatalf("head after torn-tail recovery = %d, want 2", re.Head())
	}
	if re.Truncated() == 0 {
		t.Fatal("recovery did not report truncated bytes")
	}
	// The log must be appendable again and the file healed.
	if lsns, err := re.Append([]TableRow{twoColRow("c.test", [][2]string{{"z", "3"}})}); err != nil || lsns[0] != 3 {
		t.Fatalf("append after recovery: %v %v", lsns, err)
	}
	re.Close()
	re2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Head() != 3 || re2.Truncated() != 0 {
		t.Fatalf("healed log: head=%d truncated=%d, want 3/0", re2.Head(), re2.Truncated())
	}

	// Corrupt a record body: everything from that record on is dropped.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re3, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re3.Close()
	if re3.Head() != 2 || re3.Truncated() == 0 {
		t.Fatalf("corrupt-record recovery: head=%d truncated=%d, want head 2", re3.Head(), re3.Truncated())
	}
}

func TestLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(path, []byte("plain text"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path); err == nil {
		t.Fatal("OpenLog accepted a non-log file")
	}
}

func TestValidate(t *testing.T) {
	if err := (&TableRow{}).Validate(); err == nil {
		t.Fatal("empty row validated")
	}
	r := TableRow{Columns: []ColumnRow{{Name: "a"}, {Name: "b"}}}
	if err := r.Validate(); err == nil {
		t.Fatal("valueless row validated")
	}
	r.Columns[0].Values = []string{"x"}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
}

// rowsFromTable converts a generated corpus table into its wire form.
func rowsFromTable(t *table.Table) TableRow {
	r := TableRow{Domain: t.Domain, Title: t.Title}
	for _, c := range t.Columns {
		r.Columns = append(r.Columns, ColumnRow{Name: c.Name, Values: c.Values})
	}
	return r
}

// TestIngestorParity: appending tables and syncing must publish exactly the
// mapping set a from-scratch synthesis of base+ingested produces — the
// end-to-end form of the pipeline's golden parity contract.
func TestIngestorParity(t *testing.T) {
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 11, SampleFraction: 0.25})
	if len(corpus.Tables) < 10 {
		t.Fatalf("test corpus too small: %d", len(corpus.Tables))
	}
	const hold = 3
	base := corpus.Tables[:len(corpus.Tables)-hold]

	var published []*mapping.Mapping
	var publishedLSN int64
	ing, err := NewIngestor(Options{
		LogPath: filepath.Join(t.TempDir(), "default.mlog"),
		Base:    base,
		Config:  pipeline.DefaultConfig(),
		Publish: func(maps []*mapping.Mapping, lsn int64) error {
			published, publishedLSN = maps, lsn
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	all := append([]*table.Table(nil), base...)
	for i := 0; i < hold; i++ {
		src := corpus.Tables[len(corpus.Tables)-hold+i]
		if _, err := ing.Append([]TableRow{rowsFromTable(src)}); err != nil {
			t.Fatal(err)
		}
		if err := ing.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		if publishedLSN != int64(i+1) {
			t.Fatalf("published LSN %d, want %d", publishedLSN, i+1)
		}

		all = append(all, src)
		want, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), all)
		if err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		if err := snapshot.WriteV2(&wb, want.Mappings); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.WriteV2(&gb, published); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("step %d: ingested synthesis differs from full rebuild", i)
		}

		st := ing.Status()
		if st.Pending || st.AppliedLSN != st.HeadLSN || st.LagSeconds != 0 {
			t.Fatalf("status not converged after Sync: %+v", st)
		}
		if st.LastSynthesisMs <= 0 || st.LastPublishMs < 0 || st.LastRunMs != st.LastSynthesisMs+st.LastPublishMs {
			t.Fatalf("run time not split into synthesis + publish: %+v", st)
		}
	}
	if st := ing.Status(); st.Runs != hold {
		t.Fatalf("runs = %d, want %d", st.Runs, hold)
	}
}

// TestIngestorRecoveryPending: rows replayed from disk count as pending until
// the first sync converges them.
func TestIngestorRecoveryPending(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.mlog")
	lg, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append([]TableRow{twoColRow("a.test", [][2]string{{"x", "1"}, {"y", "2"}})}); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	calls := 0
	ing, err := NewIngestor(Options{
		LogPath: path,
		Config:  pipeline.DefaultConfig(),
		Publish: func([]*mapping.Mapping, int64) error { calls++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	st := ing.Status()
	if !st.Pending || st.HeadLSN != 1 || st.AppliedLSN != 0 {
		t.Fatalf("recovered status = %+v, want pending head=1 applied=0", st)
	}
	if err := ing.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("publish calls = %d, want 1", calls)
	}
	if st := ing.Status(); st.Pending {
		t.Fatalf("still pending after sync: %+v", st)
	}
	// A second sync with nothing new must be a no-op.
	if err := ing.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("no-op sync republished: calls = %d", calls)
	}
}

func TestManager(t *testing.T) {
	m := NewManager()
	if m.Get("x") != nil {
		t.Fatal("Get on empty manager returned an ingestor")
	}
	mk := func() (*Ingestor, error) {
		return NewIngestor(Options{Config: pipeline.DefaultConfig()})
	}
	a, err := m.GetOrCreate("x", mk)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.GetOrCreate("x", mk)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("GetOrCreate is not idempotent")
	}
	if len(m.All()) != 1 {
		t.Fatalf("All() = %d entries, want 1", len(m.All()))
	}
	m.Remove("x")
	if m.Get("x") != nil {
		t.Fatal("Remove left the ingestor behind")
	}
	m.Close()
}
