package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/ingest"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
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
		IngestBase: func(ctx context.Context, corpus string) ([]*table.Table, error) {
			return base, nil
		},
	})
	t.Cleanup(func() { srv.Close() })
	return srv
}

func tableNDJSON(t *testing.T, tabs ...*table.Table) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, tab := range tabs {
		row := ingest.TableRow{Domain: tab.Domain, Title: tab.Title}
		for _, c := range tab.Columns {
			row.Columns = append(row.Columns, ingest.ColumnRow{Name: c.Name, Values: c.Values})
		}
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// postIngest streams body to the ingest endpoint and returns the per-row
// lines and the trailer.
func postIngest(t *testing.T, h http.Handler, url, body string) ([]map[string]any, ingestTrailer) {
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
	var trailer ingestTrailer
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

	var info corpusInfo
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
	var ack ingestLine
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
	var trailer ingestTrailer
	if err := json.Unmarshal(lines.Bytes(), &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines.Text(), err)
	}
	if !trailer.Done || trailer.Synthesis != "applied" || trailer.AppliedLSN != 1 || trailer.Version <= before {
		t.Fatalf("trailer %+v, want synthesis applied at LSN 1 on a version after %d", trailer, before)
	}
}

// TestSnapshotDelta exercises the delta path of GET /snapshot: ?since and
// ?since_crc return a delta that reconstructs the live image byte-for-byte,
// and any unknown base silently falls back to the full snapshot.
func TestSnapshotDelta(t *testing.T) {
	base, held := ingestCorpus(t, 2)
	srv := newIngestServer(t, base)
	h := srv.Handler()

	// Version A: first held-out table ingested.
	_, trA := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held[0]))
	if trA.Synthesis != "applied" {
		t.Fatalf("synthesis A: %q (%s)", trA.Synthesis, trA.SynthesisError)
	}
	recA, fullA := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	versionA := recA.Header().Get("X-Corpus-Version")
	crcA, ok := snapshot.FileCRC(fullA)
	if !ok {
		t.Fatal("snapshot A has no trailing CRC")
	}
	fullA = append([]byte(nil), fullA...)

	// Version B: second table ingested.
	_, trB := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held[1]))
	if trB.Synthesis != "applied" {
		t.Fatalf("synthesis B: %q (%s)", trB.Synthesis, trB.SynthesisError)
	}
	_, fullB := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	fullB = append([]byte(nil), fullB...)

	check := func(param string) {
		t.Helper()
		rec, body := getSnapshot(t, h, "/v1/corpora/default/snapshot?"+param)
		if !snapshot.IsDelta(body) {
			t.Fatalf("%s: response is not a delta (%d bytes)", param, len(body))
		}
		if got := rec.Header().Get("X-Delta-Base"); got != versionA {
			t.Fatalf("%s: X-Delta-Base = %q, want %q", param, got, versionA)
		}
		if got := rec.Header().Get("X-Delta-Base-CRC"); got != fmt.Sprintf("%08x", crcA) {
			t.Fatalf("%s: X-Delta-Base-CRC = %q, want %08x", param, got, crcA)
		}
		if len(body) >= len(fullB) {
			t.Fatalf("%s: delta (%d bytes) not smaller than full (%d bytes)", param, len(body), len(fullB))
		}
		d, err := snapshot.OpenDelta(body)
		if err != nil {
			t.Fatalf("%s: OpenDelta: %v", param, err)
		}
		rebuilt, err := d.Apply(fullA)
		if err != nil {
			t.Fatalf("%s: Apply: %v", param, err)
		}
		if !bytes.Equal(rebuilt, fullB) {
			t.Fatalf("%s: delta-rebuilt snapshot differs from full snapshot", param)
		}
	}
	check("since=" + versionA)
	check(fmt.Sprintf("since_crc=%08x", crcA))

	// Unknown bases fall back to the full snapshot — the parameter is an
	// optimization, not a contract.
	for _, param := range []string{"since=9999", "since_crc=deadbeef", "since=bogus"} {
		rec, body := getSnapshot(t, h, "/v1/corpora/default/snapshot?"+param)
		if snapshot.IsDelta(body) || rec.Header().Get("X-Delta-Base") != "" {
			t.Fatalf("%s: expected full-snapshot fallback, got delta", param)
		}
		if !bytes.Equal(body, fullB) {
			t.Fatalf("%s: fallback body differs from full snapshot", param)
		}
	}
}

// TestDeltaUpload ships a delta to a second server: PUT sniffs the delta
// magic, resolves the base by CRC among live+history, and installs the
// rebuilt image as a new version. A delta with no matching base is refused.
func TestDeltaUpload(t *testing.T) {
	base, held := ingestCorpus(t, 2)
	srv := newIngestServer(t, base)
	h := srv.Handler()

	_, trA := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held[0]))
	recA, fullA := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	versionA := recA.Header().Get("X-Corpus-Version")
	fullA = append([]byte(nil), fullA...)
	_, trB := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, held[1]))
	if trA.Synthesis != "applied" || trB.Synthesis != "applied" {
		t.Fatalf("synthesis: %q/%q", trA.Synthesis, trB.Synthesis)
	}
	_, fullB := getSnapshot(t, h, "/v1/corpora/default/snapshot")
	fullB = append([]byte(nil), fullB...)
	_, delta := getSnapshot(t, h, "/v1/corpora/default/snapshot?since="+versionA)
	if !snapshot.IsDelta(delta) {
		t.Fatal("no delta to ship")
	}
	delta = append([]byte(nil), delta...)

	follower := NewFromMappings(testMappings(), Options{})
	defer follower.Close()
	fh := follower.Handler()

	put := func(name string, data []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPut, "/v1/corpora/"+name, bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/octet-stream")
		fh.ServeHTTP(rec, req)
		return rec
	}

	// No base yet: the delta must be refused, not half-applied.
	if rec := put("rep", delta); rec.Code == http.StatusOK || rec.Code == http.StatusCreated {
		t.Fatalf("delta without base accepted: %d %s", rec.Code, rec.Body.String())
	}
	if rec := put("rep", fullA); rec.Code != http.StatusCreated {
		t.Fatalf("full upload = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := put("rep", delta); rec.Code != http.StatusOK {
		t.Fatalf("delta upload = %d: %s", rec.Code, rec.Body.String())
	}
	_, got := getSnapshot(t, fh, "/v1/corpora/rep/snapshot")
	if !bytes.Equal(got, fullB) {
		t.Fatal("delta-rolled follower snapshot differs from source")
	}
}

// TestIngestRegistryChurn hammers one corpus with concurrent ingestion,
// activate/rollback flips, delta-or-full snapshot reads and corpus
// delete/recreate (on a sibling), asserting under -race that every served
// snapshot is a complete, CRC-valid image — no version is ever visible with
// a partially applied delta.
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
			var info corpusInfo
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

	// Readers: every snapshot answer must be a complete image — a full v2
	// file with a valid trailing CRC, or a delta that applies cleanly.
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
				data := rec.Body.Bytes()
				if snapshot.IsDelta(data) {
					report("plain snapshot GET returned a delta")
					continue
				}
				if _, ok := snapshot.FileCRC(data); !ok {
					report("served snapshot missing trailing CRC (partial image?)")
					continue
				}
				if _, err := snapshot.LoadBytes(append([]byte(nil), data...)); err != nil {
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

// TestIngestWithoutBasePreservesCorpus pins the base-less contract: when a
// server has no IngestBase source (the common "serve -snapshot X
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

	var before corpusInfo
	getJSON(t, h, "/v1/corpora/default", &before)
	if before.Mappings == 0 {
		t.Fatal("corpus empty before ingest")
	}

	// Two tables in distinct domains carrying the same relation, enough
	// rows to clear MinPairs, so the ingested content itself synthesizes.
	keys := []string{"Springfield", "Shelbyville", "Ogdenville", "North Haverbrook", "Capital City"}
	vals := []string{"IL-1", "IL-2", "IL-3", "IL-4", "IL-5"}
	tabs := []*table.Table{
		twoColTable(100, "towns.example", keys, vals),
		twoColTable(101, "gazetteer.example", keys, vals),
	}
	_, trailer := postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, tabs...))
	if trailer.Synthesis != "applied" {
		t.Fatalf("synthesis = %q (%s), want applied", trailer.Synthesis, trailer.SynthesisError)
	}

	var after corpusInfo
	getJSON(t, h, "/v1/corpora/default", &after)
	if after.Mappings < before.Mappings {
		t.Fatalf("ingest shrank the corpus: %d mappings -> %d", before.Mappings, after.Mappings)
	}
	if after.Mappings == before.Mappings {
		t.Fatalf("ingested relation did not synthesize: still %d mappings", after.Mappings)
	}

	// The pre-ingest content must still serve...
	var lr lookupResponse
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
	keys2 := []string{"Cypress Creek", "Little Pwagmattasquarmsettport", "Brockway", "Waverly Hills", "New Horsefly"}
	vals2 := []string{"OH-1", "OH-2", "OH-3", "OH-4", "OH-5"}
	tabs2 := []*table.Table{
		twoColTable(102, "towns2.example", keys2, vals2),
		twoColTable(103, "gazetteer2.example", keys2, vals2),
	}
	_, trailer = postIngest(t, h, "/v1/corpora/default/tables?wait=1", tableNDJSON(t, tabs2...))
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
