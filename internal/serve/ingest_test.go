package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/ingest"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// ingestCorpus generates the deterministic synthesis corpus the ingest
// tests feed through the HTTP endpoint, split into a base (what the server
// "already had") and held-out tables to stream in live.
func ingestCorpus(t *testing.T, hold int) (base, held []*table.Table) {
	t.Helper()
	c := corpusgen.GenerateWeb(corpusgen.Options{Seed: 11, SampleFraction: 0.25})
	if len(c.Tables) < hold+10 {
		t.Fatalf("test corpus too small: %d tables", len(c.Tables))
	}
	return c.Tables[:len(c.Tables)-hold], c.Tables[len(c.Tables)-hold:]
}

// newIngestServer builds a server whose default corpus accepts live
// ingestion: the append log lives under a temp dir and the synthesis base
// comes from the generated corpus.
func newIngestServer(t *testing.T, base []*table.Table) *Server {
	t.Helper()
	srv := NewFromMappings(testMappings(), Options{
		CacheSize: 16,
		IngestDir: t.TempDir(),
		Tables:    base,
	})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// wireRow is a table in the ingest endpoint's form.
func wireRow(tab *table.Table) ingest.TableRow {
	row := ingest.TableRow{Domain: tab.Domain, Title: tab.Title}
	for _, c := range tab.Columns {
		row.Columns = append(row.Columns, ingest.ColumnRow{Name: c.Name, Values: c.Values})
	}
	return row
}

// asIngested returns tabs as the ingestor materializes them after n earlier
// tables: wire rows with dense IDs from n.
func asIngested(n int, tabs ...*table.Table) []*table.Table {
	out := make([]*table.Table, len(tabs))
	for i, tab := range tabs {
		row := wireRow(tab)
		out[i] = row.Table(n + i)
	}
	return out
}

// synthesizedImage is the v2 image of a from-scratch synthesis of tables
// under the server's synthesis configuration.
func synthesizedImage(t *testing.T, srv *Server, tables []*table.Table) []byte {
	t.Helper()
	res, err := pipeline.New(srv.synthesisConfig()).Run(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := snapshot.WriteV2(&b, res.Mappings); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func tableNDJSON(t *testing.T, tabs ...*table.Table) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, tab := range tabs {
		if err := enc.Encode(wireRow(tab)); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// postIngest streams body to the ingest endpoint and returns the per-row
// lines and the trailer.
func postIngest(t *testing.T, h http.Handler, url, body string) ([]map[string]any, client.IngestTrailer) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", url, rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatalf("empty ingest response")
	}
	var trailer client.IngestTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	var rows []map[string]any
	for _, l := range lines[:len(lines)-1] {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		rows = append(rows, m)
	}
	return rows, trailer
}

func getSnapshot(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
	}
	return rec, rec.Body.Bytes()
}

// TestIngestEndpoint streams held-out tables through POST /tables?wait=1 and
// checks acknowledgement lines, validation errors, the synthesis trailer and
// the staleness report converging to applied == head.
func TestIngestEndpoint(t *testing.T) {
	base, held := ingestCorpus(t, 3)
	srv := newIngestServer(t, base)
	h := srv.Handler()

	body := tableNDJSON(t, held...) + `{"domain":"bad.test","title":"empty","columns":[]}` + "\n"
	rows, trailer := postIngest(t, h, "/v1/corpora/default/tables?wait=1", body)

	var acks, errs int
	for _, m := range rows {
		if _, ok := m["lsn"]; ok {
			acks++
		} else if _, ok := m["error"]; ok {
			errs++
		}
	}
	if acks != len(held) || errs != 1 {
		t.Fatalf("acks=%d errs=%d, want %d/1 (rows=%v)", acks, errs, len(held), rows)
	}
	if trailer.Accepted != len(held) || trailer.Rejected != 1 {
		t.Fatalf("trailer accepted=%d rejected=%d, want %d/1", trailer.Accepted, trailer.Rejected, len(held))
	}
	if trailer.Synthesis != "applied" {
		t.Fatalf("synthesis = %q (%s), want applied", trailer.Synthesis, trailer.SynthesisError)
	}
	if trailer.HeadLSN != int64(len(held)) || trailer.AppliedLSN != trailer.HeadLSN {
		t.Fatalf("head=%d applied=%d, want both %d", trailer.HeadLSN, trailer.AppliedLSN, len(held))
	}

	var info client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &info)
	if info.Ingest == nil {
		t.Fatal("corpus info missing ingest status")
	}
	if info.Ingest.AppliedLSN != info.Ingest.HeadLSN || info.Ingest.Pending {
		t.Fatalf("staleness did not converge: %+v", info.Ingest)
	}
	if info.Format != "v2" || info.SnapshotCRC == "" {
		t.Fatalf("ingest-published state not v2-backed: format=%q crc=%q", info.Format, info.SnapshotCRC)
	}
	if info.Mappings == 0 {
		t.Fatal("ingest-published state has no mappings")
	}
	if info.Ingest.LogFailed != "" {
		t.Fatalf("healthy log reports log_failed = %q", info.Ingest.LogFailed)
	}
	if body := scrape(t, h); !strings.Contains(body, `mapsynth_ingest_log_failed{corpus="default"} 0`) {
		t.Error("exposition missing mapsynth_ingest_log_failed at 0 for a healthy log")
	}
}

// TestIngestAcksBeforeSynthesis pins the ?wait=1 contract: the per-row
// acknowledgements report durability and arrive as soon as the append has
// fsynced; only the trailer waits for synthesis. Publishing is held back by
// taking the corpus's write lock, so the ack must be readable while the new
// version cannot possibly be live.
func TestIngestAcksBeforeSynthesis(t *testing.T) {
	base, held := ingestCorpus(t, 1)
	srv := newIngestServer(t, base)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := srv.reg.shell(DefaultCorpus)
	before := c.state.Load().Version
	c.writeMu.Lock()
	var once sync.Once
	release := func() { once.Do(c.writeMu.Unlock) }
	defer release()
	// Safety valve: a handler that waits for synthesis before acknowledging
	// then fails the version check below instead of deadlocking the test.
	valve := time.AfterFunc(10*time.Second, release)
	defer valve.Stop()

	resp, err := http.Post(ts.URL+"/v1/corpora/default/tables?wait=1", "application/x-ndjson",
		strings.NewReader(tableNDJSON(t, held...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	if !lines.Scan() {
		t.Fatalf("stream ended before any acknowledgement: %v", lines.Err())
	}
	var ack client.IngestLine
	if err := json.Unmarshal(lines.Bytes(), &ack); err != nil || ack.LSN != 1 {
		t.Fatalf("first line %q: %v, want the LSN 1 acknowledgement", lines.Text(), err)
	}
	if got := c.state.Load().Version; got != before {
		t.Fatalf("version moved %d -> %d while publishing was held back", before, got)
	}

	release()
	if !lines.Scan() {
		t.Fatalf("no trailer after synthesis: %v", lines.Err())
	}
	var trailer client.IngestTrailer
	if err := json.Unmarshal(lines.Bytes(), &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines.Text(), err)
	}
	if !trailer.Done || trailer.Synthesis != "applied" || trailer.AppliedLSN != 1 || trailer.Version <= before {
		t.Fatalf("trailer %+v, want synthesis applied at LSN 1 on a version after %d", trailer, before)
	}
}

// TestIngestRegistryChurn hammers one corpus with concurrent ingestion,
// activate/rollback flips, snapshot reads and corpus delete/recreate (on a
// sibling), asserting under -race that every served snapshot is a complete,
// CRC-valid image — no version is ever visible half-installed.
func TestIngestRegistryChurn(t *testing.T) {
	base, held := ingestCorpus(t, 4)
	srv := newIngestServer(t, base)
	h := srv.Handler()

	// Seed two versions so activate/rollback always has history to flip.
	if _, tr := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held[0])); tr.Synthesis != "applied" {
		t.Fatalf("seed synthesis: %q (%s)", tr.Synthesis, tr.SynthesisError)
	}
	_, seedSnap := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	seedSnap = append([]byte(nil), seedSnap...)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writer: stream the remaining held-out tables one at a time, waiting
	// for synthesis each time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tab := range held[1:] {
			_, tr := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, tab))
			if tr.Synthesis != "applied" {
				report("churn synthesis: %q (%s)", tr.Synthesis, tr.SynthesisError)
			}
		}
	}()

	// Flipper: activate old versions and roll back, racing the publishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			var info client.CorpusInfo
			getJSON(t, h, "/v1/corpora/default", &info)
			if len(info.History) == 0 {
				continue
			}
			rec := httptest.NewRecorder()
			body, _ := json.Marshal(activateRequest{Version: info.History[len(info.History)-1]})
			req := httptest.NewRequest(http.MethodPost, "/v1/corpora/default/activate", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rec, req)
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/corpora/default/rollback", nil))
		}
	}()

	// Lifecycle churn on a sibling corpus: upload, delete, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPut, "/v1/corpora/churn", bytes.NewReader(seedSnap))
			req.Header.Set("Content-Type", "application/octet-stream")
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
				report("churn PUT = %d: %s", rec.Code, rec.Body.String())
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/corpora/churn", nil))
		}
	}()

	// Readers: every snapshot answer must be a complete v2 image that loads
	// and passes the full integrity check.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/corpora/default/snapshot", nil))
				if rec.Code != http.StatusOK {
					report("snapshot GET = %d", rec.Code)
					continue
				}
				ld, err := snapshot.LoadBytes(rec.Body.Bytes())
				if err == nil {
					err = ld.Handle.Verify()
				}
				if err != nil {
					report("served snapshot does not load: %v", err)
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// twoColTable builds a two-column source table for streaming through the
// ingest endpoint.
func twoColTable(id int, domain string, keys, vals []string) *table.Table {
	return &table.Table{
		ID:     id,
		Domain: domain,
		Title:  domain,
		Columns: []table.Column{
			{Name: "town", Values: keys},
			{Name: "code", Values: vals},
		},
	}
}

// townPosts is two ingest rounds, each two tables in distinct domains
// carrying one relation with enough rows to clear MinPairs, so the ingested
// content itself synthesizes: towns to IL-n codes, then towns to OH-n.
func townPosts() [2][]*table.Table {
	keys := []string{"Springfield", "Shelbyville", "Ogdenville", "North Haverbrook", "Capital City"}
	vals := []string{"IL-1", "IL-2", "IL-3", "IL-4", "IL-5"}
	keys2 := []string{"Cypress Creek", "Little Pwagmattasquarmsettport", "Brockway", "Waverly Hills", "New Horsefly"}
	vals2 := []string{"OH-1", "OH-2", "OH-3", "OH-4", "OH-5"}
	return [2][]*table.Table{
		{twoColTable(100, "towns.example", keys, vals), twoColTable(101, "gazetteer.example", keys, vals)},
		{twoColTable(102, "towns2.example", keys2, vals2), twoColTable(103, "gazetteer2.example", keys2, vals2)},
	}
}

// TestIngestWithoutBasePreservesCorpus pins the base-less contract: when a
// server has no Tables (the common "serve -snapshot X
// -ingest-dir D" deployment), ingesting must stack synthesized mappings on
// top of the served corpus, never replace it with synthesis over the
// ingested tables alone.
func TestIngestWithoutBasePreservesCorpus(t *testing.T) {
	srv := NewFromMappings(testMappings(), Options{
		CacheSize: 16,
		IngestDir: t.TempDir(),
	})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	var before client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &before)
	if before.Mappings == 0 {
		t.Fatal("corpus empty before ingest")
	}

	posts := townPosts()
	_, trailer := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, posts[0]...))
	if trailer.Synthesis != "applied" {
		t.Fatalf("synthesis = %q (%s), want applied", trailer.Synthesis, trailer.SynthesisError)
	}

	var after client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &after)
	if after.Mappings < before.Mappings {
		t.Fatalf("ingest shrank the corpus: %d mappings -> %d", before.Mappings, after.Mappings)
	}
	if after.Mappings == before.Mappings {
		t.Fatalf("ingested relation did not synthesize: still %d mappings", after.Mappings)
	}

	// The pre-ingest content must still serve...
	var lr client.LookupResponse
	getJSON(t, h, "/v1/lookup?key=California", &lr)
	if !lr.Found || lr.Value != "CA" {
		t.Fatalf("pre-ingest key lost after ingest: %+v", lr)
	}
	// ...and the ingested relation must serve beside it.
	getJSON(t, h, "/v1/lookup?key=Springfield", &lr)
	if !lr.Found || lr.Value != "IL-1" {
		t.Fatalf("ingested key not served: %+v", lr)
	}

	// A second ingest round must keep stacking on the same frozen base,
	// not re-freeze the (already unioned) live state.
	_, trailer = postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, posts[1]...))
	if trailer.Synthesis != "applied" {
		t.Fatalf("second synthesis = %q (%s), want applied", trailer.Synthesis, trailer.SynthesisError)
	}
	for _, probe := range []struct{ key, want string }{
		{"California", "CA"}, {"Springfield", "IL-1"}, {"Cypress Creek", "OH-1"},
	} {
		getJSON(t, h, "/v1/lookup?key="+neturl.QueryEscape(probe.key), &lr)
		if !lr.Found || lr.Value != probe.want {
			t.Fatalf("lookup %q after second ingest: %+v, want %q", probe.key, lr, probe.want)
		}
	}
}

// TestIngestWithoutBaseImageParity pins the bytes of a base-less publish:
// after two posts the served image is exactly WriteV2 of the frozen base
// followed by the engine's output over the ingested tables, renumbered
// after the base's largest ID.
func TestIngestWithoutBaseImageParity(t *testing.T) {
	srv := NewFromMappings(testMappings(), Options{IngestDir: t.TempDir()})
	t.Cleanup(srv.Close)
	h := srv.Handler()

	_, pre := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	baseImage, err := snapshot.OpenBytes(pre)
	if err != nil {
		t.Fatal(err)
	}
	want := baseImage.Materialize()
	maxID := 0
	for _, m := range want {
		maxID = max(maxID, m.ID)
	}

	var ingested []*table.Table
	for _, tabs := range townPosts() {
		if _, tr := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, tabs...)); tr.Synthesis != "applied" {
			t.Fatalf("synthesis = %q (%s), want applied", tr.Synthesis, tr.SynthesisError)
		}
		// There are no base tables: dense IDs from 0.
		ingested = append(ingested, asIngested(len(ingested), tabs...)...)
	}
	res, err := pipeline.New(srv.synthesisConfig()).Run(context.Background(), ingested)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings) == 0 {
		t.Fatal("ingested tables synthesized nothing; the test would not cover the tail")
	}
	for i, m := range res.Mappings {
		nm := *m
		nm.ID = maxID + 1 + i
		want = append(want, &nm)
	}
	var wb bytes.Buffer
	if err := snapshot.WriteV2(&wb, want); err != nil {
		t.Fatal(err)
	}
	if _, got := getSnapshot(t, h, "/v1/corpora/default/snapshot"); !bytes.Equal(got, wb.Bytes()) {
		t.Fatalf("served image (%d bytes) differs from WriteV2(base ++ renumbered synthesis) (%d bytes)", len(got), wb.Len())
	}
}

// newRebuildServer serves the synthesis of base as the default corpus, as
// `serve -snapshot X -tables T -ingest-dir D` does after its boot check.
func newRebuildServer(t *testing.T, base []*table.Table) *Server {
	t.Helper()
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFromMappings(res.Mappings, Options{IngestDir: t.TempDir(), Tables: base})
	t.Cleanup(srv.Close)
	return srv
}

// TestRebuildKeepsIngestedRows: the server serves the synthesis of its
// Tables, one held table is ingested, then {"rebuild":true} re-synthesizes.
// The rebuild must include the applied ingested table, so the served
// snapshot_crc does not move and equals a from-scratch build over base +
// held.
func TestRebuildKeepsIngestedRows(t *testing.T) {
	base, held := ingestCorpus(t, 1)
	srv := newRebuildServer(t, base)
	h := srv.Handler()
	if _, tr := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held...)); tr.Synthesis != "applied" {
		t.Fatalf("synthesis = %q (%s), want applied", tr.Synthesis, tr.SynthesisError)
	}
	var ingested client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &ingested)
	if rec := postJSON(t, h, "/v1/reload", map[string]any{"rebuild": true}, nil); rec.Code != http.StatusOK {
		t.Fatalf("rebuild = %d: %s", rec.Code, rec.Body)
	}
	var rebuilt client.CorpusInfo
	getJSON(t, h, "/v1/corpora/default", &rebuilt)
	if rebuilt.Version <= ingested.Version {
		t.Fatalf("rebuild installed no new version: %d after %d", rebuilt.Version, ingested.Version)
	}
	if rebuilt.SnapshotCRC != ingested.SnapshotCRC {
		t.Fatalf("rebuild moved snapshot_crc %s -> %s: it dropped the ingested rows", ingested.SnapshotCRC, rebuilt.SnapshotCRC)
	}
	want := synthesizedImage(t, srv, append(append([]*table.Table(nil), base...), asIngested(len(base), held...)...))
	if _, got := getSnapshot(t, h, "/v1/corpora/default/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("rebuilt image (%d bytes) differs from a from-scratch build over base + held (%d bytes)", len(got), len(want))
	}
	if rebuilt.Ingest == nil || rebuilt.Ingest.AppliedLSN != 1 || rebuilt.Ingest.HeadLSN != 1 {
		t.Fatalf("ingest status after rebuild: %+v, want applied == head == 1", rebuilt.Ingest)
	}
}

// TestRebuildRacesIngest races rebuilds against ingest publishes. The
// ingest run holds the ingestor's run lock while its publish takes the
// corpus write lock, so a rebuild must take them in the same order or the
// two deadlock. Whichever runs last, the final image is the synthesis of
// base + every ingested table. Run it with -race.
func TestRebuildRacesIngest(t *testing.T) {
	base, held := ingestCorpus(t, 4)
	srv := newRebuildServer(t, base)
	h := srv.Handler()

	bodies := make([]string, len(held))
	for i, tab := range held {
		bodies[i] = tableNDJSON(t, tab)
	}
	errc := make(chan error, len(held)+1)
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/corpora/default/tables?wait=1", strings.NewReader(body)))
			if !strings.Contains(rec.Body.String(), `"synthesis":"applied"`) {
				errc <- fmt.Errorf("ingest = %d: %s, want synthesis applied", rec.Code, rec.Body)
			}
		}
	}()
	rebuilt := make(chan struct{})
	go func() {
		defer close(rebuilt)
		for {
			if _, err := srv.RebuildContext(context.Background()); err != nil {
				errc <- fmt.Errorf("rebuild: %v", err)
				return
			}
			select {
			case <-ingested:
				return
			default:
			}
		}
	}()
	deadlock := time.After(60 * time.Second)
	for _, done := range []chan struct{}{ingested, rebuilt} {
		select {
		case <-done:
		case <-deadlock:
			t.Fatal("rebuild and ingest did not finish within 60s: deadlock")
		}
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	want := synthesizedImage(t, srv, append(append([]*table.Table(nil), base...), asIngested(len(base), held...)...))
	if _, got := getSnapshot(t, h, "/v1/corpora/default/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("final image (%d bytes) differs from a from-scratch build over base + held (%d bytes)", len(got), len(want))
	}
}

// TestIngestDisabledWithoutDir: with no IngestDir an acknowledgement could
// not be durable, so the endpoint answers 422 before reading the body and
// no ingestor comes to exist.
func TestIngestDisabledWithoutDir(t *testing.T) {
	srv := NewFromMappings(testMappings(), Options{})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/corpora/default/tables?wait=1", strings.NewReader(tableNDJSON(t, townPosts()[0]...)))
	h.ServeHTTP(rec, req)
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusUnprocessableEntity || env.Error.Code != client.CodeUnprocessable {
		t.Fatalf("ingest without IngestDir = %d %s (%v), want 422 unprocessable", rec.Code, rec.Body, err)
	}
	if !strings.Contains(env.Error.Message, "-ingest-dir") {
		t.Errorf("message %q does not say how to enable ingestion", env.Error.Message)
	}
	var info client.CorpusInfo
	if getJSON(t, h, "/v1/corpora/default", &info); info.Ingest != nil {
		t.Fatalf("a refused ingest left ingest status %+v", info.Ingest)
	}
}

// TestIngestRecoveredAtStartup: acknowledged rows are served after a restart
// without anyone posting again. Server A acknowledges two tables and
// closes; server B, started on the same snapshot and ingest directory,
// must converge to serving them by itself. A log naming no served corpus
// is skipped with a warning, and a log damaged mid-file refuses start-up
// with ErrLogCorrupt instead of losing acknowledged rows.
func TestIngestRecoveredAtStartup(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "base.snap")
	if err := snapshot.WriteFileV2(snap, testMappings()); err != nil {
		t.Fatal(err)
	}
	ingestDir := filepath.Join(dir, "ingest")
	if err := os.Mkdir(ingestDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	opts := Options{SnapshotPath: snap, IngestDir: ingestDir,
		Logger: slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))}

	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := postIngest(t, a.Handler(), "/v1/corpora/default/tables?wait=1", tableNDJSON(t, townPosts()[0]...))
	a.Close()
	if tr.Synthesis != "applied" || tr.HeadLSN != 2 {
		t.Fatalf("server A trailer %+v, want 2 rows applied", tr)
	}
	logPath := filepath.Join(ingestDir, DefaultCorpus+".mlog")
	acked, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ingestDir, "ghost.mlog"), acked, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer b.Close()
	h := b.Handler()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var lr client.LookupResponse
		getJSON(t, h, "/v1/lookup?key=Springfield", &lr)
		var info client.CorpusInfo
		getJSON(t, h, "/v1/corpora/default", &info)
		if lr.Found && lr.Value == "IL-1" && info.Ingest != nil &&
			info.Ingest.HeadLSN == 2 && info.Ingest.AppliedLSN == info.Ingest.HeadLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted server never served the acknowledged rows: lookup %+v, ingest %+v", lr, info.Ingest)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var lr client.LookupResponse
	if getJSON(t, h, "/v1/lookup?key=California", &lr); !lr.Found || lr.Value != "CA" {
		t.Fatalf("pre-ingest key lost after recovery: %+v", lr)
	}
	if !strings.Contains(logs.String(), "ghost.mlog") {
		t.Fatalf("no warning for the log naming no served corpus; log output: %s", logs.String())
	}
	b.Close()

	// Damage the first of the two frames: the second is intact, so
	// start-up must refuse rather than truncate it away.
	bad := append([]byte(nil), acked...)
	bad[4+8+2] ^= 0xff
	if err := os.WriteFile(logPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := New(opts); !errors.Is(err, ingest.ErrLogCorrupt) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("start-up over a log corrupt mid-file = %v, want ErrLogCorrupt", err)
	}
}

// TestIngestLogFailedIsDeclared: an append that fails because the log has
// failed answers 503 ingest_log_failed, however the error is wrapped; any
// other append error stays a 500 internal.
func TestIngestLogFailedIsDeclared(t *testing.T) {
	for _, tc := range []struct {
		err    error
		code   string
		status int
	}{
		{fmt.Errorf("%w: write c.mlog: no space left on device", ingest.ErrLogFailed), client.CodeIngestLogFailed, http.StatusServiceUnavailable},
		{errors.Join(fmt.Errorf("%w: fsync", ingest.ErrLogFailed), errors.New("truncate failed")), client.CodeIngestLogFailed, http.StatusServiceUnavailable},
		{errors.New("encode frame"), client.CodeInternal, http.StatusInternalServerError},
	} {
		code := appendErrorCode(tc.err)
		if code != tc.code || client.StatusOf(code) != tc.status {
			t.Errorf("append error %q answers %d %s, want %d %s", tc.err, client.StatusOf(code), code, tc.status, tc.code)
		}
		rec := httptest.NewRecorder()
		writeError(rec, httptest.NewRequest(http.MethodPost, "/v1/corpora/default/tables", nil), code, "ingest log append: "+tc.err.Error())
		var env client.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != tc.status || env.Error.Code != tc.code {
			t.Errorf("envelope for %q: status %d, body %s (%v)", tc.err, rec.Code, rec.Body.Bytes(), err)
		}
	}
}
