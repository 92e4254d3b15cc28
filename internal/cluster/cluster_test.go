package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
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
func newTestCoordinator(t *testing.T, peers []Peer, numShards int) *Coordinator {
	t.Helper()
	topo, err := NewTopology(peers, numShards)
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
	peers, err := ParsePeers("a=http://h1:1,b=h2:2,c=http://h3:3=0+2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{
		{Name: "a", Addr: "http://h1:1"},
		{Name: "b", Addr: "http://h2:2"}, // scheme defaulted
		{Name: "c", Addr: "http://h3:3", Shards: []int{0, 2}},
	}
	if !reflect.DeepEqual(peers, want) {
		t.Errorf("ParsePeers = %+v, want %+v", peers, want)
	}
	for _, bad := range []string{"", "a", "=x", "a=b=zz", "bad name!=http://x"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
	if _, err := NewTopology(peers, 2); err == nil {
		t.Error("NewTopology accepted shard 2 in a 2-shard topology")
	}
	topo, err := NewTopology(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumShards != 3 {
		t.Errorf("inferred NumShards = %d, want 3", topo.NumShards)
	}
}

func TestMissingShards(t *testing.T) {
	topo, err := NewTopology([]Peer{
		{Name: "a", Addr: "http://a", Shards: []int{0, 1}},
		{Name: "b", Addr: "http://b", Shards: []int{1, 2}},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	all := func(Peer) bool { return true }
	if got := topo.missingShards(all); got != nil {
		t.Errorf("full coverage missing = %v", got)
	}
	onlyA := func(p Peer) bool { return p.Name == "a" }
	if got := topo.missingShards(onlyA); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("a-only missing = %v, want [2]", got)
	}
	none := func(Peer) bool { return false }
	if got := topo.missingShards(none); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("none missing = %v, want [0 1 2]", got)
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
	}, 0)
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
	}, 0)
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

// TestScatterGather: a corpus partitioned across two peers answers through
// the merge path; killing one peer degrades honestly instead of failing.
func TestScatterGather(t *testing.T) {
	// Shard 0 holds the state mapping, shard 1 a disjoint vocabulary.
	tsA, _ := testNode(t, codedMappings("A", "California", "Washington"))
	tsB, _ := testNode(t, codedMappings("B", "Oregon", "Texas", "Nevada"))
	co := newTestCoordinator(t, []Peer{
		{Name: "a", Addr: tsA.URL, Shards: []int{0}},
		{Name: "b", Addr: tsB.URL, Shards: []int{1}},
	}, 2)
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	// A key only peer b holds: the scatter merge must surface b's answer.
	code, m := get("/v1/lookup?key=Texas")
	if code != http.StatusOK || m["found"] != true || m["value"] != "B-Te" {
		t.Fatalf("scatter lookup = %d %v", code, m)
	}
	if m["degraded"] != false {
		t.Errorf("healthy scatter reports degraded: %v", m)
	}
	// A key only peer a holds.
	if _, m := get("/v1/lookup?key=California"); m["value"] != "A-Ca" {
		t.Errorf("lookup California = %v", m)
	}

	// Autofill scatters too.
	resp, err := http.Post(front.URL+"/v1/autofill", "application/json",
		strings.NewReader(`{"column":["Oregon","Texas"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var af map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&af); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if af["found"] != true || af["degraded"] != false {
		t.Fatalf("scatter autofill = %v", af)
	}

	// Batch endpoints cannot scatter: with no full replica they 503 with
	// the structured envelope.
	resp, err = http.Post(front.URL+"/v1/batch/autofill", "application/x-ndjson",
		strings.NewReader(`{"column":["x"]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("partitioned batch = %d, want 503", resp.StatusCode)
	}

	// Kill peer b: lookups for its keys degrade — still 200, best-effort
	// answer, with the missing shard named.
	tsB.Close()
	co.ProbeOnce(context.Background())
	code, m = get("/v1/lookup?key=Texas")
	if code != http.StatusOK {
		t.Fatalf("degraded lookup = %d %v", code, m)
	}
	if m["found"] != false || m["degraded"] != true {
		t.Errorf("degraded lookup = %v", m)
	}
	if ms, ok := m["missing_shards"].([]any); !ok || len(ms) != 1 || ms[0] != float64(1) {
		t.Errorf("missing_shards = %v", m["missing_shards"])
	}
	// Keys on the surviving peer still answer.
	if _, m := get("/v1/lookup?key=California"); m["value"] != "A-Ca" || m["degraded"] != true {
		t.Errorf("surviving-half lookup = %v", m)
	}
}

// TestRoll: snapshot shipping walks the replica set; afterwards every peer
// serves the source's data at a fresh version.
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
	}, 0)
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

// TestRollDelta: a roll to peers whose probed state is CRC-identified ships
// deltas, not full images — and the result is byte-identical to a full roll.
func TestRollDelta(t *testing.T) {
	// Two mapping generations sharing most content: v2 changes one mapping
	// out of many, so a delta between their snapshots is small.
	generation := func(tag string) []*mapping.Mapping {
		maps := codedMappings(tag)
		for i := 1; i <= 20; i++ {
			ls, rs := make([]string, 8), make([]string, 8)
			for j := range ls {
				ls[j] = fmt.Sprintf("key-%d-%d", i, j)
				rs[j] = fmt.Sprintf("val-%d-%d", i, j)
			}
			bt := table.NewBinaryTable(100+i, 100+i, fmt.Sprintf("fill%d.example", i), "l", "r", ls, rs)
			maps = append(maps, mapping.Build(i, []*table.BinaryTable{bt}))
		}
		return maps
	}
	snap := func(maps []*mapping.Mapping) []byte {
		var buf bytes.Buffer
		if err := snapshot.WriteV2(&buf, maps); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	snapA, snapB := snap(generation("A")), snap(generation("B"))

	ts1, _ := testNode(t, codedMappings("seed"))
	ts2, _ := testNode(t, codedMappings("seed"))
	ts3, _ := testNode(t, codedMappings("seed"))
	ctx := context.Background()
	// Everyone starts on generation A (v2-backed, so each node's healthz
	// reports the snapshot CRC); the source then moves to B.
	for _, u := range []string{ts1.URL, ts2.URL, ts3.URL} {
		if _, err := client.New(u).Corpus("default").Upload(ctx, snapA); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.New(ts1.URL).Corpus("default").Upload(ctx, snapB); err != nil {
		t.Fatal(err)
	}
	co := newTestCoordinator(t, []Peer{
		{Name: "n1", Addr: ts1.URL},
		{Name: "n2", Addr: ts2.URL},
		{Name: "n3", Addr: ts3.URL},
	}, 0)
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	rep, err := client.New(front.URL, client.WithRetries(0)).RollCluster(ctx, client.RollRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != "n1" || len(rep.Rolled) != 2 {
		t.Fatalf("roll report = %+v", rep)
	}
	for _, rp := range rep.Rolled {
		if !rp.Delta {
			t.Errorf("peer %s rolled with a full image, want delta", rp.Peer)
		}
		if rp.Bytes >= rep.Bytes {
			t.Errorf("peer %s delta (%d bytes) not smaller than full (%d)", rp.Peer, rp.Bytes, rep.Bytes)
		}
	}
	if rep.ShippedBytes >= 2*rep.Bytes {
		t.Errorf("shipped %d bytes, full-image roll would be %d", rep.ShippedBytes, 2*rep.Bytes)
	}
	// Byte parity: every peer now serves exactly the source's image.
	for _, u := range []string{ts2.URL, ts3.URL} {
		data, _, err := client.New(u).Corpus("default").Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, snapB) {
			t.Errorf("peer %s snapshot differs after delta roll", u)
		}
	}
}

// TestClusterClient: NewCluster bootstraps from the coordinator and routes
// queries directly to replicas.
func TestClusterClient(t *testing.T) {
	ts1, _ := testNode(t, codedMappings("N"))
	ts2, _ := testNode(t, codedMappings("N"))
	co := newTestCoordinator(t, []Peer{
		{Name: "n1", Addr: ts1.URL},
		{Name: "n2", Addr: ts2.URL},
	}, 0)
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	cc, err := client.NewCluster(context.Background(), front.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		lr, err := cc.Lookup(context.Background(), "California")
		if err != nil || !lr.Found {
			t.Fatalf("cluster client lookup %d: %v %+v", i, err, lr)
		}
	}
	af, err := cc.AutoFill(context.Background(), client.AutoFillRequest{Column: []string{"California"}})
	if err != nil || !af.Found {
		t.Fatalf("cluster client autofill: %v %+v", err, af)
	}
	// Batch goes through the coordinator.
	var lines int
	if _, err := cc.BatchAutoFill(context.Background(), []client.AutoFillRequest{
		{ID: "x", Column: []string{"California"}},
	}, func(client.BatchLine[client.AutoFillResponse]) error { lines++; return nil }); err != nil {
		t.Fatal(err)
	}
	if lines != 1 {
		t.Errorf("batch lines = %d", lines)
	}
}

// TestCoordinatorHealthz: ok with everyone up, degraded with partial
// coverage, 503 with nobody alive.
func TestCoordinatorHealthz(t *testing.T) {
	tsA, _ := testNode(t, codedMappings("A"))
	tsB, _ := testNode(t, codedMappings("B"))
	co := newTestCoordinator(t, []Peer{
		{Name: "a", Addr: tsA.URL, Shards: []int{0}},
		{Name: "b", Addr: tsB.URL, Shards: []int{1}},
	}, 2)
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
	if code, m := status(); code != http.StatusOK || m["status"] != "degraded" {
		t.Fatalf("half-dead cluster = %d %v", code, m)
	}
	tsA.Close()
	co.ProbeOnce(context.Background())
	if code, _ := status(); code != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster = %d, want 503", code)
	}
}
