package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/serve"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// codedMappings builds one mapping whose right side is prefix-coded, so a
// response proves which node (or data half) answered.
func codedMappings(prefix string, states ...string) []*mapping.Mapping {
	if len(states) == 0 {
		states = []string{"California", "Washington", "Oregon", "Texas"}
	}
	coded := make([]string, len(states))
	for i, s := range states {
		coded[i] = prefix + "-" + s[:2]
	}
	var bts []*table.BinaryTable
	for i := 0; i < 3; i++ {
		bts = append(bts, table.NewBinaryTable(i, i, fmt.Sprintf("%s%d.example", prefix, i), "s", "c", states, coded))
	}
	return []*mapping.Mapping{mapping.Build(0, bts)}
}

// testNode boots one in-process serve node and returns its base URL and a
// shutdown func.
func testNode(t *testing.T, maps []*mapping.Mapping) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 16})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// newTestCoordinator builds a probed coordinator over the given peers.
func newTestCoordinator(t *testing.T, peers []Peer) *Coordinator {
	t.Helper()
	topo, err := NewTopology(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(topo, Options{PeerTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co.ProbeOnce(context.Background())
	return co
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:1,b=h2:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{
		{Name: "a", Addr: "http://h1:1"},
		{Name: "b", Addr: "http://h2:2"}, // scheme defaulted
	}
	if !reflect.DeepEqual(peers, want) {
		t.Errorf("ParsePeers = %+v, want %+v", peers, want)
	}
	for _, bad := range []string{"", "a", "=x", "a=b=zz", "bad name!=http://x", "c=h:3=0+2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
	if _, err := ParsePeers("c=h:3=0+2"); err == nil || !strings.Contains(err.Error(), "partial peers") {
		t.Errorf("third field rejected with %v, want the partial-peers message", err)
	}
	if _, err := NewTopology(peers, 2); err == nil {
		t.Error("NewTopology accepted a non-zero second argument")
	}
	if _, err := NewTopology(append(peers, peers[0]), 0); err == nil {
		t.Error("NewTopology accepted a duplicate peer name")
	}
	if _, err := NewTopology(peers, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaProxyRouting: with full replicas the coordinator reverse-
// proxies point-to-point — every endpoint works, answers round-robin
// across replicas, and a dead replica is routed around after one probe.
func TestReplicaProxyRouting(t *testing.T) {
	ts1, _ := testNode(t, codedMappings("N"))
	ts2, _ := testNode(t, codedMappings("N"))
	co := newTestCoordinator(t, []Peer{
		{Name: "n1", Addr: ts1.URL},
		{Name: "n2", Addr: ts2.URL},
	})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	c := client.New(front.URL, client.WithRetries(0))

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		lr, err := c.Lookup(ctx, "California")
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if !lr.Found || lr.Value != "N-Ca" {
			t.Fatalf("lookup %d = %+v", i, lr)
		}
	}

	// Batch NDJSON streams through the proxy untouched.
	var lines int
	trailer, err := c.BatchAutoFill(ctx, []client.AutoFillRequest{
		{ID: "r1", Column: []string{"California", "Washington"}},
	}, func(bl client.BatchLine[client.AutoFillResponse]) error {
		lines++
		return nil
	})
	if err != nil || trailer == nil {
		t.Fatalf("batch through coordinator: %v", err)
	}
	if lines != 1 {
		t.Errorf("batch lines = %d, want 1", lines)
	}

	// The cluster view shows both peers alive and not degraded.
	info, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded || len(info.Peers) != 2 || !info.Peers[0].Alive || !info.Peers[1].Alive {
		t.Fatalf("cluster info = %+v", info)
	}
	if v := info.Peers[0].Corpora["default"].Version; v != 1 {
		t.Errorf("probed version = %d, want 1", v)
	}

	// Kill n1: after a probe the coordinator routes everything to n2.
	ts1.Close()
	co.ProbeOnce(ctx)
	for i := 0; i < 3; i++ {
		lr, err := c.Lookup(ctx, "California")
		if err != nil || !lr.Found {
			t.Fatalf("post-death lookup %d: %v %+v", i, err, lr)
		}
	}
	info, err = c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, p := range info.Peers {
		if p.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Errorf("alive after kill = %d, want 1", alive)
	}
}

// TestVersionAwareRouting: when replicas hold different corpus versions,
// the coordinator routes only to the freshest — the property that makes a
// rolling snapshot install invisible to clients.
func TestVersionAwareRouting(t *testing.T) {
	ts1, _ := testNode(t, codedMappings("OLD"))
	ts2, srv2 := testNode(t, codedMappings("OLD"))
	// Advance n2 to version 2 with new data.
	if _, err := srv2.AddCorpus("default", codedMappings("NEW")); err != nil {
		t.Fatal(err)
	}
	co := newTestCoordinator(t, []Peer{
		{Name: "n1", Addr: ts1.URL},
		{Name: "n2", Addr: ts2.URL},
	})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	c := client.New(front.URL, client.WithRetries(0))

	// Every request must land on n2 (version 2), never the stale n1.
	for i := 0; i < 6; i++ {
		lr, err := c.Lookup(context.Background(), "California")
		if err != nil {
			t.Fatal(err)
		}
		if lr.Value != "NEW-Ca" {
			t.Fatalf("request %d answered by stale replica: %+v", i, lr)
		}
	}
}

// TestCoordinatorParity: through a coordinator over one replica, every
// request answers exactly what the node answers directly — status,
// Content-Type and body (minus the fields that tick between two requests)
// — and with the replica dead every routed surface answers the 503
// not_ready envelope.
func TestCoordinatorParity(t *testing.T) {
	node, _ := testNode(t, codedMappings("N"))
	co := newTestCoordinator(t, []Peer{{Name: "n1", Addr: node.URL}})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	const column = `"column":["California","Washington","Oregon"]`
	const mixed = `"column":["California","Washington","N-Or","N-Te"]`
	batch := func(lines ...string) string { return strings.Join(lines, "\n") + "\n" }
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"lookup", "GET", "/v1/lookup?key=California", "", 200},
		{"autofill", "POST", "/v1/autofill", `{` + column + `,"top_k":3}`, 200},
		{"autocorrect", "POST", "/v1/autocorrect", `{` + mixed + `,"top_k":3}`, 200},
		{"autojoin", "POST", "/v1/autojoin",
			`{"keys_a":["California","Oregon"],"keys_b":["N-Ca","N-Or"],"top_k":3}`, 200},
		{"batch autofill", "POST", "/v1/batch/autofill",
			batch(`{"id":"a",`+column+`}`, `{"id":"b","column":["Texas"],"top_k":2}`), 200},
		{"batch autocorrect", "POST", "/v1/batch/autocorrect",
			batch(`{"id":"a",`+mixed+`}`, `{"id":"b","column":[]}`), 200},
		{"batch autojoin", "POST", "/v1/batch/autojoin",
			batch(`{"id":"a","keys_a":["California"],"keys_b":["N-Ca"],"top_k":2}`), 200},
		{"corpora", "GET", "/v1/corpora", "", 200},
		{"snapshot", "GET", "/v1/corpora/default/snapshot", "", 200},
		{"corpus_not_found", "GET", "/v1/corpora/nope/lookup?key=California", "", 404},
		{"bad_request", "GET", "/v1/lookup", "", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct := doRequest(t, node.URL, tc.method, tc.path, tc.body)
			proxied := doRequest(t, front.URL, tc.method, tc.path, tc.body)
			if direct.status != tc.status {
				t.Fatalf("node answered %d, want %d: %s", direct.status, tc.status, direct.body)
			}
			if proxied.status != direct.status || proxied.contentType != direct.contentType {
				t.Errorf("coordinator %d %q, node %d %q",
					proxied.status, proxied.contentType, direct.status, direct.contentType)
			}
			if !bytes.Equal(proxied.body, direct.body) {
				t.Errorf("bodies differ:\ncoordinator: %s\nnode:        %s", proxied.body, direct.body)
			}
		})
	}

	node.Close()
	co.ProbeOnce(context.Background())
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/lookup?key=California", ""},
		{"POST", "/v1/batch/autofill", batch(`{` + column + `}`)},
		{"PUT", "/v1/corpora/other", `{"snapshot":"x.snap"}`},
	} {
		got := doRequest(t, front.URL, tc.method, tc.path, tc.body)
		if got.status != http.StatusServiceUnavailable || !bytes.Contains(got.body, []byte(`"code":"not_ready"`)) {
			t.Errorf("%s %s with no replica alive = %d %s, want 503 not_ready", tc.method, tc.path, got.status, got.body)
		}
	}
}

type answer struct {
	status      int
	contentType string
	body        []byte
}

// doRequest sends one request with a fixed X-Request-ID (so the echoed
// request_id agrees between the two routes) and returns the answer with
// JSON bodies normalized: clock-dependent keys dropped, NDJSON lines sorted
// (batch results stream in completion order). Other bodies stay raw.
func doRequest(t *testing.T, base, method, path, body string) answer {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "parity-"+strings.ReplaceAll(path, "/", "."))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	a := answer{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: raw}
	if !strings.Contains(a.contentType, "json") {
		return a
	}
	var lines []string
	for _, ln := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var v any
		if err := json.Unmarshal(ln, &v); err != nil {
			t.Fatalf("%s %s: bad JSON line %q: %v", method, path, ln, err)
		}
		out, _ := json.Marshal(dropClockKeys(v))
		lines = append(lines, string(out))
	}
	sort.Strings(lines)
	a.body = []byte(strings.Join(lines, "\n"))
	return a
}

func dropClockKeys(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if k == "uptime_s" || k == "age_s" {
				delete(x, k)
			} else {
				x[k] = dropClockKeys(e)
			}
		}
	case []any:
		for i, e := range x {
			x[i] = dropClockKeys(e)
		}
	}
	return v
}

// TestRoll: snapshot shipping walks the replica set; afterwards every peer
// serves the source's data at a fresh version, from an image byte-identical
// to the source's, and each follower was shipped that full image once.
func TestRoll(t *testing.T) {
	ts1, srv1 := testNode(t, codedMappings("V1"))
	ts2, _ := testNode(t, codedMappings("V1"))
	ts3, _ := testNode(t, codedMappings("V1"))
	// Node 1 gets new data (version 2) — the state a roll must spread.
	if _, err := srv1.AddCorpus("default", codedMappings("V2")); err != nil {
		t.Fatal(err)
	}
	co := newTestCoordinator(t, []Peer{
		{Name: "n1", Addr: ts1.URL},
		{Name: "n2", Addr: ts2.URL},
		{Name: "n3", Addr: ts3.URL},
	})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	c := client.New(front.URL, client.WithRetries(0))

	rep, err := c.RollCluster(context.Background(), client.RollRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != "n1" || rep.SourceVersion != 2 || len(rep.Rolled) != 2 {
		t.Fatalf("roll report = %+v", rep)
	}
	ctx := context.Background()
	src, _, err := client.New(ts1.URL).Corpus("default").Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes != int64(len(src)) || rep.ShippedBytes != int64(len(rep.Rolled))*rep.Bytes {
		t.Fatalf("bytes = %d, shipped_bytes = %d; want %d and %d×%d",
			rep.Bytes, rep.ShippedBytes, len(src), len(rep.Rolled), len(src))
	}
	for _, rp := range rep.Rolled {
		if rp.Bytes != rep.Bytes {
			t.Errorf("peer %s was shipped %d bytes, want the %d-byte image", rp.Peer, rp.Bytes, rep.Bytes)
		}
	}
	for _, u := range []string{ts2.URL, ts3.URL} {
		data, _, err := client.New(u).Corpus("default").Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, src) {
			t.Errorf("node %s snapshot differs from the source's after roll", u)
		}
	}
	// Every node now answers with the new data, directly.
	for _, u := range []string{ts1.URL, ts2.URL, ts3.URL} {
		lr, err := client.New(u).Lookup(context.Background(), "California")
		if err != nil {
			t.Fatal(err)
		}
		if lr.Value != "V2-Ca" {
			t.Errorf("node %s after roll = %+v", u, lr)
		}
	}
	// And the cluster view agrees every replica is at version 2.
	info, err := c.Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range info.Peers {
		if v := p.Corpora["default"].Version; v != 2 {
			t.Errorf("peer %s version = %d, want 2", p.Name, v)
		}
	}
}

// TestCoordinatorHealthz: ok with everyone up, still ok with one replica
// dead, 503 with nobody alive.
func TestCoordinatorHealthz(t *testing.T) {
	tsA, _ := testNode(t, codedMappings("A"))
	tsB, _ := testNode(t, codedMappings("A"))
	co := newTestCoordinator(t, []Peer{
		{Name: "a", Addr: tsA.URL},
		{Name: "b", Addr: tsB.URL},
	})
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	status := func() (int, map[string]any) {
		resp, err := http.Get(front.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}
	if code, m := status(); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthy cluster = %d %v", code, m)
	}
	tsB.Close()
	co.ProbeOnce(context.Background())
	if code, m := status(); code != http.StatusOK || m["status"] != "ok" || m["alive"] != float64(1) {
		t.Fatalf("one replica dead = %d %v", code, m)
	}
	tsA.Close()
	co.ProbeOnce(context.Background())
	if code, _ := status(); code != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster = %d, want 503", code)
	}
}
