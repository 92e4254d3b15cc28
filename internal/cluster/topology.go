// Package cluster turns N independent serve processes into one logical
// mapping service. Every peer is a full replica: it holds the whole image
// of every corpus it serves. A Coordinator owns a static topology of peers
// (name, address), probes their /v1/healthz for liveness and per-corpus
// versions, and fronts the whole v1 HTTP surface:
//
//   - every request is reverse-proxied point-to-point to an alive replica
//     at the freshest probed version of the target corpus, round-robin
//     among equals — byte-identical answers, NDJSON batch streaming
//     included; dead replicas are routed around, and with none alive the
//     request answers the 503 not_ready envelope;
//   - replication is snapshot shipping over the existing corpus surface —
//     Roll downloads the freshest replica's v2 snapshot bytes and PUTs
//     them peer by peer, so a corpus reload walks the replica set with
//     zero downtime (every swap is atomic node-side).
//
// The package deliberately speaks to peers only through pkg/client — the
// public SDK — so the coordinator exercises exactly the wire contract any
// external client gets.
package cluster

import (
	"fmt"
	"net/url"
	"strings"
)

// Peer is one serve process in the topology: a full replica.
type Peer struct {
	// Name is the peer's stable identity, [A-Za-z0-9._-]{1,64}.
	Name string
	// Addr is the peer's base URL, e.g. "http://10.0.0.7:8080".
	Addr string
}

// Topology is the static cluster layout the coordinator serves.
type Topology struct {
	Peers []Peer
}

// ParsePeers parses the -peers flag grammar: comma-separated
//
//	name=addr
//
// entries, e.g. "a=http://10.0.0.1:8080,b=10.0.0.2:8080". Addresses
// without a scheme default to http://.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, addr, _ := strings.Cut(ent, "=")
		if name == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want name=addr)", ent)
		}
		if strings.Contains(addr, "=") {
			return nil, fmt.Errorf("cluster: bad peer %q: partial peers (name=addr=shards) were removed; every peer is a full replica (want name=addr)", ent)
		}
		p := Peer{Name: name, Addr: normalizeAddr(addr)}
		if !validPeerName(p.Name) {
			return nil, fmt.Errorf("cluster: bad peer name %q (want [A-Za-z0-9._-]{1,64})", p.Name)
		}
		if _, err := url.Parse(p.Addr); err != nil {
			return nil, fmt.Errorf("cluster: bad peer address %q: %v", addr, err)
		}
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", spec)
	}
	return peers, nil
}

func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

func validPeerName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// NewTopology validates the peer set into a Topology. numShards must be 0:
// partial peers were removed, and the parameter remains only because the
// benchmark module (bench/, which PRs outside its own archetype may not
// edit) calls NewTopology(peers, 0).
func NewTopology(peers []Peer, numShards int) (*Topology, error) {
	if numShards != 0 {
		return nil, fmt.Errorf("cluster: numShards %d: partial peers were removed; every peer is a full replica (pass 0)", numShards)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty topology")
	}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return &Topology{Peers: peers}, nil
}
