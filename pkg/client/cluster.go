package client

import (
	"context"
	"net/http"
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
