package client

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// ---- cluster wire types (GET /v1/cluster on a coordinator) ----

// ClusterCorpus is one corpus's state on one peer, as last probed.
type ClusterCorpus struct {
	Version  int64  `json:"version"`
	Format   string `json:"format"`
	Mappings int    `json:"mappings"`
	// SnapshotCRC is the whole-file CRC of the peer's live snapshot. Version
	// numbers are per-node counters; equal CRCs are what say two peers
	// serve the same image.
	SnapshotCRC string `json:"snapshot_crc,omitempty"`
}

// ClusterPeer is one peer's entry in ClusterInfo.
type ClusterPeer struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// Error is the last probe failure, empty while alive.
	Error string `json:"error,omitempty"`
	// AgeSeconds is how long ago the last probe completed; negative when
	// the peer has never been probed.
	AgeSeconds float64 `json:"age_s"`
	// Corpora maps corpus name to its probed state on this peer.
	Corpora map[string]ClusterCorpus `json:"corpora,omitempty"`
}

// ClusterInfo is the body of GET /v1/cluster: the coordinator's topology
// and its live view of peer health.
type ClusterInfo struct {
	ResponseMeta
	// Degraded is true when no peer is alive: every routed request answers
	// 503 not_ready until one recovers.
	Degraded bool          `json:"degraded"`
	Peers    []ClusterPeer `json:"peers"`
}

// Cluster fetches a coordinator's topology and health view. Against a
// plain single node the call fails with code "not_found".
func (c *Client) Cluster(ctx context.Context) (*ClusterInfo, error) {
	var info ClusterInfo
	if err := c.call(ctx, http.MethodGet, "/v1/cluster", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// RollRequest is the body of POST /v1/cluster/roll.
type RollRequest struct {
	// Corpus names the corpus to roll; empty means "default".
	Corpus string `json:"corpus,omitempty"`
	// Source names the peer to ship the snapshot from; empty picks the
	// freshest alive replica.
	Source string `json:"source,omitempty"`
}

// RolledPeer is one peer's outcome in a RollReport.
type RolledPeer struct {
	Peer    string `json:"peer"`
	Version int64  `json:"version"`
	// Bytes is what was shipped to this peer: the full image.
	Bytes int64 `json:"bytes"`
}

// RollReport is the answer to a successful POST /v1/cluster/roll.
type RollReport struct {
	ResponseMeta
	Corpus        string `json:"corpus"`
	Source        string `json:"source"`
	SourceVersion int64  `json:"source_version"`
	// Bytes is the full snapshot image's size; ShippedBytes is what
	// crossed the wire to all peers, Bytes * len(Rolled).
	Bytes        int64        `json:"bytes"`
	ShippedBytes int64        `json:"shipped_bytes"`
	Rolled       []RolledPeer `json:"rolled"`
	DurationMs   float64      `json:"duration_ms"`
}

// RollCluster asks a coordinator to ship the named corpus's snapshot from
// one replica to every other alive peer, one at a time.
func (c *Client) RollCluster(ctx context.Context, req RollRequest) (*RollReport, error) {
	var rep RollReport
	if err := c.post(ctx, "/v1/cluster/roll", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ---- cluster-aware client ----

// ClusterClient routes queries directly to a cluster's data nodes. It
// bootstraps from one coordinator URL: NewCluster fetches /v1/cluster,
// learns the peer set, and thereafter sends single queries round-robin to
// the alive replicas — skipping the coordinator hop — while batch streams
// and admin go to the coordinator, which proxies them. Refresh re-reads the
// topology; call it on a timer or after errors to track peer churn.
type ClusterClient struct {
	seed *Client
	opts []Option

	mu    sync.Mutex
	peers atomic.Pointer[[]*Client]
	rr    atomic.Uint64
}

// NewCluster returns a ClusterClient bootstrapped from the coordinator at
// seedURL. The options apply to the seed client and every per-peer client.
// A failed initial topology fetch is an error — a cluster client that
// cannot see the cluster is misconfiguration, not a degraded mode.
func NewCluster(ctx context.Context, seedURL string, opts ...Option) (*ClusterClient, error) {
	cc := &ClusterClient{seed: New(seedURL, opts...), opts: opts}
	if err := cc.Refresh(ctx); err != nil {
		return nil, fmt.Errorf("client: cluster bootstrap from %s: %w", seedURL, err)
	}
	return cc, nil
}

// Refresh re-fetches the topology from the coordinator and rebuilds the
// direct-routing peer set: every alive peer.
func (cc *ClusterClient) Refresh(ctx context.Context) error {
	info, err := cc.seed.Cluster(ctx)
	if err != nil {
		return err
	}
	var direct []*Client
	for _, p := range info.Peers {
		if p.Alive {
			direct = append(direct, New(p.Addr, cc.opts...))
		}
	}
	cc.mu.Lock()
	cc.peers.Store(&direct)
	cc.mu.Unlock()
	return nil
}

// Coordinator returns the client for the seed coordinator itself, for
// surfaces the ClusterClient does not route (admin, stats, rolls).
func (cc *ClusterClient) Coordinator() *Client { return cc.seed }

// pick returns the next direct peer round-robin, falling back to the
// coordinator when no peer was alive at the last Refresh (it answers
// not_ready, or routes to a peer that has since recovered).
func (cc *ClusterClient) pick() *Client {
	peers := *cc.peers.Load()
	if len(peers) == 0 {
		return cc.seed
	}
	return peers[int(cc.rr.Add(1)-1)%len(peers)]
}

// Lookup answers a single-key query on the next replica round-robin.
func (cc *ClusterClient) Lookup(ctx context.Context, key string) (*LookupResponse, error) {
	return cc.pick().Lookup(ctx, key)
}

// AutoFill answers one auto-fill query on the next replica round-robin.
func (cc *ClusterClient) AutoFill(ctx context.Context, req AutoFillRequest) (*AutoFillResponse, error) {
	return cc.pick().AutoFill(ctx, req)
}

// AutoCorrect answers one auto-correct query on the next replica round-robin.
func (cc *ClusterClient) AutoCorrect(ctx context.Context, req AutoCorrectRequest) (*AutoCorrectResponse, error) {
	return cc.pick().AutoCorrect(ctx, req)
}

// AutoJoin answers one auto-join query on the next replica round-robin.
func (cc *ClusterClient) AutoJoin(ctx context.Context, req AutoJoinRequest) (*AutoJoinResponse, error) {
	return cc.pick().AutoJoin(ctx, req)
}

// BatchAutoFill streams through the coordinator, which pins the NDJSON
// stream to one replica.
func (cc *ClusterClient) BatchAutoFill(ctx context.Context, reqs []AutoFillRequest, fn func(BatchLine[AutoFillResponse]) error) (*BatchTrailer, error) {
	return cc.seed.BatchAutoFill(ctx, reqs, fn)
}

// BatchAutoCorrect streams through the coordinator.
func (cc *ClusterClient) BatchAutoCorrect(ctx context.Context, reqs []AutoCorrectRequest, fn func(BatchLine[AutoCorrectResponse]) error) (*BatchTrailer, error) {
	return cc.seed.BatchAutoCorrect(ctx, reqs, fn)
}

// BatchAutoJoin streams through the coordinator.
func (cc *ClusterClient) BatchAutoJoin(ctx context.Context, reqs []AutoJoinRequest, fn func(BatchLine[AutoJoinResponse]) error) (*BatchTrailer, error) {
	return cc.seed.BatchAutoJoin(ctx, reqs, fn)
}
