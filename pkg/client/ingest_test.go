package client_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/serve"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// ingestService builds a real server whose default corpus accepts live
// ingestion, plus the held-out tables to stream into it.
func ingestService(t *testing.T) (*client.Client, []*table.Table) {
	t.Helper()
	gen := corpusgen.GenerateWeb(corpusgen.Options{Seed: 11, SampleFraction: 0.25})
	if len(gen.Tables) < 12 {
		t.Fatalf("test corpus too small: %d tables", len(gen.Tables))
	}
	base, held := gen.Tables[:len(gen.Tables)-2], gen.Tables[len(gen.Tables)-2:]
	srv := serve.NewFromMappings(codedMappings("DEF"), serve.Options{
		CacheSize: 16,
		IngestDir: t.TempDir(),
		Tables:    base,
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), held
}

func ingestTableOf(tab *table.Table) client.IngestTable {
	it := client.IngestTable{Domain: tab.Domain, Title: tab.Title}
	for _, c := range tab.Columns {
		it.Columns = append(it.Columns, client.IngestColumn{Name: c.Name, Values: c.Values})
	}
	return it
}

// TestIngestTables streams two tables (one invalid) with Wait and checks
// the acknowledgement lines, the trailer, and the staleness report
// surfaced through Corpus.Get.
func TestIngestTables(t *testing.T) {
	c, held := ingestService(t)
	ctx := context.Background()
	def := c.Corpus(client.DefaultCorpus)

	tables := []client.IngestTable{
		ingestTableOf(held[0]),
		{Domain: "bad.test"}, // no columns: rejected row, not a failed call
	}
	var lines []client.IngestLine
	trailer, err := def.IngestTables(ctx, tables, client.IngestOptions{Wait: true}, func(l client.IngestLine) error {
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Accepted != 1 || trailer.Rejected != 1 || trailer.Synthesis != "applied" {
		t.Fatalf("trailer = %+v", trailer)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var acks, errs int
	for _, l := range lines {
		if l.Err != nil {
			errs++
		} else if l.LSN > 0 {
			acks++
		}
	}
	if acks != 1 || errs != 1 {
		t.Fatalf("acks=%d errs=%d, want 1/1 (%+v)", acks, errs, lines)
	}

	info, err := def.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingest == nil {
		t.Fatal("CorpusInfo.Ingest missing after ingestion")
	}
	if info.Ingest.AppliedLSN != info.Ingest.HeadLSN || info.Ingest.Pending {
		t.Fatalf("staleness did not converge: %+v", info.Ingest)
	}
	if info.SnapshotCRC == "" || info.Format != "v2" {
		t.Fatalf("ingest-published state not CRC-identified: format=%q crc=%q", info.Format, info.SnapshotCRC)
	}

	// Healthz carries the same staleness so coordinators can probe it.
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := h.Corpora[client.DefaultCorpus]
	if !ok || ch.Ingest == nil || ch.SnapshotCRC != info.SnapshotCRC {
		t.Fatalf("healthz ingest/CRC mismatch: %+v", ch)
	}
}

// TestSnapshotRoundTrip checks the replication primitive end to end: after
// an ingest publishes a new version, Snapshot returns the live version and
// its full image, and Upload installs those bytes on another corpus as a
// byte-identical state with the same snapshot_crc.
func TestSnapshotRoundTrip(t *testing.T) {
	c, held := ingestService(t)
	ctx := context.Background()
	def := c.Corpus(client.DefaultCorpus)

	if _, err := def.IngestTables(ctx, []client.IngestTable{ingestTableOf(held[0])}, client.IngestOptions{Wait: true}, nil); err != nil {
		t.Fatal(err)
	}
	full, version, err := def.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	info, err := def.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if version != info.Version || version < 2 {
		t.Fatalf("snapshot version %d, live version %d: want the ingest-published version", version, info.Version)
	}

	follower := c.Corpus("follower")
	if _, err := follower.Upload(ctx, full); err != nil {
		t.Fatal(err)
	}
	got, _, err := follower.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("uploaded follower's snapshot differs from source")
	}
	finfo, err := follower.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if finfo.SnapshotCRC != info.SnapshotCRC {
		t.Fatalf("follower snapshot_crc %s, source %s", finfo.SnapshotCRC, info.SnapshotCRC)
	}
}
