package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mapsynth/internal/apps"
	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// testMappings builds a deterministic mapping set with overlapping vocab:
// a (state -> abbreviation) mapping seen from several tables/domains, a
// (city -> state) mapping, and filler mappings the queries must not hit.
func testMappings() []*mapping.Mapping {
	states := []string{"California", "Washington", "Oregon", "Texas", "Nevada", "Utah"}
	abbrs := []string{"CA", "WA", "OR", "TX", "NV", "UT"}
	var stateTables []*table.BinaryTable
	for i := 0; i < 4; i++ {
		stateTables = append(stateTables, table.NewBinaryTable(
			i, i, fmt.Sprintf("dom%d.example", i), "state", "abbr", states, abbrs))
	}
	cities := []string{"San Francisco", "Seattle", "Portland", "Houston", "Las Vegas"}
	cityStates := []string{"California", "Washington", "Oregon", "Texas", "Nevada"}
	cityTables := []*table.BinaryTable{
		table.NewBinaryTable(10, 10, "cities.example", "city", "state", cities, cityStates),
		table.NewBinaryTable(11, 11, "atlas.example", "city", "state", cities, cityStates),
	}
	maps := []*mapping.Mapping{
		mapping.Build(0, stateTables),
		mapping.Build(1, cityTables),
	}
	for i := 2; i < 12; i++ {
		ls := make([]string, 8)
		rs := make([]string, 8)
		for j := range ls {
			ls[j] = fmt.Sprintf("key-%d-%d", i, j)
			rs[j] = fmt.Sprintf("val-%d-%d", i, j)
		}
		bt := table.NewBinaryTable(100+i, 100+i, fmt.Sprintf("filler%d.example", i), "l", "r", ls, rs)
		maps = append(maps, mapping.Build(i, []*table.BinaryTable{bt}))
	}
	return maps
}

func newTestServer(t *testing.T, cacheSize int) (*Server, []*mapping.Mapping) {
	t.Helper()
	maps := testMappings()
	return NewFromMappings(maps, Options{CacheSize: cacheSize}), maps
}

func getJSON(t *testing.T, h http.Handler, url string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec
}

func postJSON(t *testing.T, h http.Handler, url string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec
}

func TestLookupEndpoint(t *testing.T) {
	srv, maps := newTestServer(t, 16)
	h := srv.Handler()

	var resp client.LookupResponse
	rec := getJSON(t, h, "/v1/lookup?key=California", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !resp.Found || resp.Value != "CA" {
		t.Fatalf("lookup California = %+v, want value CA", resp)
	}
	// Provenance must point at the state mapping (4 tables, 4 domains).
	if resp.MappingID != maps[0].ID || resp.Tables != 4 || resp.Domains != 4 || resp.Support != 4 {
		t.Errorf("provenance = %+v, want mapping %d with 4 tables/domains/support", resp, maps[0].ID)
	}

	getJSON(t, h, "/v1/lookup?key=Seattle", &resp)
	if !resp.Found || resp.Value != "Washington" {
		t.Errorf("lookup Seattle = %+v, want Washington", resp)
	}

	getJSON(t, h, "/v1/lookup?key=NoSuchPlace", &resp)
	if resp.Found {
		t.Errorf("lookup NoSuchPlace = %+v, want found=false", resp)
	}

	if rec := getJSON(t, h, "/v1/lookup", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing key: status = %d, want 400", rec.Code)
	}
}

func TestLookupMatchesMappingDirect(t *testing.T) {
	srv, maps := newTestServer(t, 0)
	for _, m := range maps {
		for _, p := range m.Pairs {
			resp := srv.Lookup(p.L)
			if !resp.Found {
				t.Fatalf("lookup %q: not found", p.L)
			}
			// The served value must be the direct Lookup answer of the most
			// popular mapping containing the key.
			direct, _ := respMapping(maps, resp.MappingID).Lookup(p.L)
			if resp.Value != direct {
				t.Errorf("lookup %q = %q, direct = %q", p.L, resp.Value, direct)
			}
		}
	}
}

func respMapping(maps []*mapping.Mapping, id int) *mapping.Mapping {
	for _, m := range maps {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// TestAppEndpointsMatchDirect asserts the acceptance criterion: the HTTP
// responses equal direct internal/apps output over a monolithic index.
func TestAppEndpointsMatchDirect(t *testing.T) {
	srv, maps := newTestServer(t, 16)
	h := srv.Handler()
	image, err := snapshot.FromMappings(maps)
	if err != nil {
		t.Fatal(err)
	}
	sess := apps.NewSession(index.FromSource(image))
	ctx := context.Background()

	t.Run("autofill", func(t *testing.T) {
		column := []string{"San Francisco", "Seattle", "Portland", "Houston"}
		examples := []apps.Example{{Left: "San Francisco", Right: "California"}}
		res, err := sess.AutoFill(ctx, []apps.AutoFillQuery{{Column: column, Examples: examples, MinCoverage: 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		direct := res[0]

		var resp client.AutoFillResponse
		postJSON(t, h, "/v1/autofill", map[string]any{
			"column":       column,
			"examples":     []map[string]string{{"left": "San Francisco", "right": "California"}},
			"min_coverage": 0.8,
		}, &resp)
		if !resp.Found || resp.MappingIndex != direct.MappingIndex {
			t.Fatalf("autofill = %+v, direct index %d", resp, direct.MappingIndex)
		}
		got := map[int]string{}
		for _, c := range resp.Filled {
			got[c.Row] = c.Value
		}
		if !reflect.DeepEqual(got, direct.Filled) {
			t.Errorf("filled = %v, want %v", got, direct.Filled)
		}
	})

	t.Run("autocorrect", func(t *testing.T) {
		column := []string{"California", "Washington", "OR", "Texas", "NV"}
		res, err := sess.AutoCorrect(ctx, []apps.AutoCorrectQuery{{Column: column, MinEach: 2, MinCoverage: 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		direct := res[0]
		var resp client.AutoCorrectResponse
		postJSON(t, h, "/v1/autocorrect", map[string]any{"column": column}, &resp)
		if resp.MappingIndex != direct.MappingIndex {
			t.Fatalf("autocorrect index = %d, want %d", resp.MappingIndex, direct.MappingIndex)
		}
		want := make([]client.Correction, len(direct.Corrections))
		for i, c := range direct.Corrections {
			want[i] = client.Correction(c)
		}
		if !reflect.DeepEqual(resp.Corrections, want) {
			t.Errorf("corrections = %+v, want %+v", resp.Corrections, want)
		}
	})

	t.Run("autojoin", func(t *testing.T) {
		keysA := []string{"California", "Washington", "Oregon", "Texas"}
		keysB := []string{"TX", "CA", "WA", "OR", "ZZ"}
		res, err := sess.AutoJoin(ctx, []apps.AutoJoinQuery{{KeysA: keysA, KeysB: keysB, MinCoverage: 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		direct := res[0]
		var resp client.AutoJoinResponse
		postJSON(t, h, "/v1/autojoin", map[string]any{"keys_a": keysA, "keys_b": keysB}, &resp)
		if resp.MappingIndex != direct.MappingIndex || resp.Bridged != direct.Bridged {
			t.Fatalf("autojoin = %+v, direct %+v", resp, direct)
		}
		if len(resp.Rows) != len(direct.Rows) {
			t.Fatalf("rows = %d, want %d", len(resp.Rows), len(direct.Rows))
		}
		for i, r := range direct.Rows {
			if resp.Rows[i].LeftRow != r.LeftRow || resp.Rows[i].RightRow != r.RightRow {
				t.Errorf("row %d = %+v, want %+v", i, resp.Rows[i], r)
			}
		}
	})

	t.Run("badbody", func(t *testing.T) {
		rec := postJSON(t, h, "/v1/autofill", map[string]any{"colunm": []string{"x"}}, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("unknown field: status = %d, want 400", rec.Code)
		}
	})
}

func TestLookupCache(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	for i := 0; i < 3; i++ {
		if resp := srv.Lookup("California"); !resp.Found || resp.Value != "CA" {
			t.Fatalf("iteration %d: %+v", i, resp)
		}
	}
	// Surface-form variants of the same normalized key must hit the cache.
	if resp := srv.Lookup("  california "); !resp.Found || resp.Value != "CA" {
		t.Fatalf("normalized variant: %+v", resp)
	}
	st := srv.State()
	if hits := st.cache.hits.Load(); hits != 3 {
		t.Errorf("cache hits = %d, want 3", hits)
	}
	if misses := st.cache.misses.Load(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}

	// Eviction: capacity 8, insert 10 distinct keys.
	for i := 0; i < 10; i++ {
		srv.Lookup(fmt.Sprintf("key-5-%d", i%8) + fmt.Sprint(i))
	}
	if n := st.cache.len(); n > 8 {
		t.Errorf("cache size = %d, want <= 8", n)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv, maps := newTestServer(t, 8)
	h := srv.Handler()
	getJSON(t, h, "/v1/lookup?key=California", nil)
	getJSON(t, h, "/v1/lookup?key=California", nil)
	postJSON(t, h, "/v1/autofill", map[string]any{"column": []string{"Seattle"}}, nil)

	var health map[string]any
	if rec := getJSON(t, h, "/v1/healthz", &health); rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
	corpora, _ := health["corpora"].(map[string]any)
	def, _ := corpora[DefaultCorpus].(map[string]any)
	if def == nil || int(def["mappings"].(float64)) != len(maps) {
		t.Errorf("healthz default corpus = %v", corpora)
	}

	var stats StatsSnapshot
	getJSON(t, h, "/v1/stats", &stats)
	if got := stats.Endpoints["lookup"].Requests; got != 2 {
		t.Errorf("lookup requests = %d, want 2", got)
	}
	if got := stats.Endpoints["autofill"].Requests; got != 1 {
		t.Errorf("autofill requests = %d, want 1", got)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", stats.Cache)
	}
	if stats.Endpoints["lookup"].P99Ms <= 0 {
		t.Errorf("lookup p99 = %v, want > 0", stats.Endpoints["lookup"].P99Ms)
	}
}

func TestSnapshotLoadAndHotReload(t *testing.T) {
	maps := testMappings()
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.snap")
	if err := snapshot.WriteFileV2(pathA, maps); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{SnapshotPath: pathA, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var resp client.LookupResponse
	getJSON(t, h, "/v1/lookup?key=California", &resp)
	if !resp.Found || resp.Value != "CA" {
		t.Fatalf("after snapshot load: %+v", resp)
	}
	oldState := srv.State()

	// Second snapshot with different content: states now map to codes with a
	// "US-" prefix, so a successful reload is observable.
	states := []string{"California", "Washington"}
	coded := []string{"US-CA", "US-WA"}
	var bts []*table.BinaryTable
	for i := 0; i < 3; i++ {
		bts = append(bts, table.NewBinaryTable(i, i, fmt.Sprintf("new%d.example", i), "s", "c", states, coded))
	}
	pathB := filepath.Join(dir, "b.snap")
	if err := snapshot.WriteFileV2(pathB, []*mapping.Mapping{mapping.Build(0, bts)}); err != nil {
		t.Fatal(err)
	}

	var reloadResp map[string]any
	if rec := postJSON(t, h, "/v1/reload", map[string]string{"snapshot": pathB}, &reloadResp); rec.Code != http.StatusOK {
		t.Fatalf("reload status = %d: %v", rec.Code, reloadResp)
	}
	if srv.State() == oldState {
		t.Fatal("state pointer did not swap")
	}
	getJSON(t, h, "/v1/lookup?key=California", &resp)
	if !resp.Found || resp.Value != "US-CA" {
		t.Fatalf("after reload: %+v, want US-CA", resp)
	}
	// The old state's cached answer must be gone with the old cache.
	if resp := srv.Lookup("Seattle"); resp.Found {
		t.Errorf("Seattle survived reload: %+v", resp)
	}

	// A failed reload must leave the serving state untouched.
	cur := srv.State()
	if rec := postJSON(t, h, "/v1/reload", map[string]string{"snapshot": filepath.Join(dir, "missing.snap")}, nil); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("missing snapshot reload: status = %d, want 422", rec.Code)
	}
	if srv.State() != cur {
		t.Error("failed reload replaced the serving state")
	}
	if stats := srv.Stats(); stats.Reloads != 2 {
		t.Errorf("reloads = %d, want 2 (initial load + one hot reload)", stats.Reloads)
	}
}

// TestReloadRebuild exercises the engine-backed rebuild path: POST /reload
// with {"rebuild": true} must re-synthesize Options.Tables and swap the
// result in, keeping the snapshot path — directly without ingestion, and
// through the default corpus's ingestor with it.
func TestReloadRebuild(t *testing.T) {
	maps := testMappings()
	base, _ := ingestCorpus(t, 0)
	for _, tc := range []struct{ name, ingestDir string }{{"direct", ""}, {"ingestor", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewFromMappings(maps, Options{SnapshotPath: "orig.snap", Tables: base, IngestDir: tc.ingestDir})
			t.Cleanup(srv.Close)
			h := srv.Handler()

			var resp map[string]any
			if rec := postJSON(t, h, "/v1/reload", map[string]any{"rebuild": true}, &resp); rec.Code != http.StatusOK {
				t.Fatalf("rebuild status = %d: %v", rec.Code, resp)
			}
			if resp["rebuilt"] != true || resp["snapshot"] != "orig.snap" {
				t.Errorf("response rebuilt = %v, snapshot = %v, want true and orig.snap", resp["rebuilt"], resp["snapshot"])
			}
			if got := srv.State().Path; got != "orig.snap" {
				t.Errorf("state path = %q, want snapshot path preserved", got)
			}
			if _, got := getSnapshot(t, h, "/v1/corpora/default/snapshot"); !bytes.Equal(got, synthesizedImage(t, srv, base)) {
				t.Fatal("after rebuild the served image is not the synthesis of Tables")
			}

			// rebuild + snapshot in one request is rejected.
			if rec := postJSON(t, h, "/v1/reload", map[string]any{"rebuild": true, "snapshot": "x.snap"}, nil); rec.Code != http.StatusBadRequest {
				t.Errorf("rebuild+snapshot status = %d, want 400", rec.Code)
			}

			// A cancelled request context aborts the rebuild, state untouched.
			cur := srv.State()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := srv.RebuildContext(ctx); err == nil {
				t.Error("cancelled rebuild should error")
			}
			if srv.State() != cur {
				t.Error("cancelled rebuild replaced the serving state")
			}
		})
	}

	// Without a rebuild source the request fails and state is untouched.
	bare := NewFromMappings(maps, Options{})
	cur := bare.State()
	if rec := postJSON(t, bare.Handler(), "/v1/reload", map[string]any{"rebuild": true}, nil); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("no-source rebuild status = %d, want 422", rec.Code)
	}
	if bare.State() != cur {
		t.Error("failed rebuild replaced the serving state")
	}
}

// TestRebuildOverlapRejected asserts that a rebuild issued while another
// rebuild is running is rejected instead of queueing a second pipeline run.
// The first rebuild is held at its install by the corpus write lock.
func TestRebuildOverlapRejected(t *testing.T) {
	base, _ := ingestCorpus(t, 0)
	srv := NewFromMappings(testMappings(), Options{Tables: base})
	c := srv.reg.shell(DefaultCorpus)
	c.writeMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := srv.RebuildContext(context.Background())
		done <- err
	}()
	for !srv.rebuilding.Load() {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.RebuildContext(context.Background()); err == nil {
		t.Error("overlapping rebuild should be rejected")
	}
	c.writeMu.Unlock()
	if err := <-done; err != nil {
		t.Errorf("first rebuild failed: %v", err)
	}
}
