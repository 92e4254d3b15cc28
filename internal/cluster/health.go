package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"mapsynth/pkg/client"
)

// ProbeOnce probes every peer's /v1/healthz concurrently and records the
// results. A probe learns two things the router needs: liveness, and each
// corpus's version — the input to version-aware replica selection during a
// snapshot roll.
func (co *Coordinator) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, pc := range co.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.probePeer(ctx, pc)
		}()
	}
	wg.Wait()
}

func (co *Coordinator) probePeer(ctx context.Context, pc *peerConn) {
	ctx, cancel := context.WithTimeout(ctx, co.opts.PeerTimeout)
	defer cancel()
	h, err := pc.cli.Healthz(ctx)
	now := time.Now()
	if err != nil {
		wasAlive := pc.status.Load().alive
		pc.markDead(err)
		if wasAlive {
			co.log.Warn("peer down", "peer", pc.peer.Name, "error", err)
		}
		return
	}
	if !pc.status.Load().alive {
		co.log.Info("peer up", "peer", pc.peer.Name)
	}
	pc.status.Store(&peerStatus{alive: true, probed: now, corpora: h.Corpora})
}

// handleCluster answers GET /v1/cluster: the static topology annotated
// with the live probe view.
func (co *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.clusterInfo())
}

func (co *Coordinator) clusterInfo() client.ClusterInfo {
	var info client.ClusterInfo
	now := time.Now()
	alive := 0
	for _, pc := range co.peers {
		st := pc.status.Load()
		cp := client.ClusterPeer{
			Name:       pc.peer.Name,
			Addr:       pc.peer.Addr,
			Alive:      st.alive,
			Error:      st.err,
			AgeSeconds: -1,
		}
		if !st.probed.IsZero() {
			cp.AgeSeconds = now.Sub(st.probed).Seconds()
		}
		if st.alive {
			alive++
			cp.Corpora = make(map[string]client.ClusterCorpus, len(st.corpora))
			for name, ch := range st.corpora {
				cp.Corpora[name] = client.ClusterCorpus{
					Version:     ch.Version,
					Format:      ch.Format,
					Mappings:    ch.Mappings,
					SnapshotCRC: ch.SnapshotCRC,
				}
			}
		}
		info.Peers = append(info.Peers, cp)
	}
	sort.Slice(info.Peers, func(a, b int) bool { return info.Peers[a].Name < info.Peers[b].Name })
	info.Degraded = alive == 0
	return info
}

// handleHealthz is the coordinator's own health: ok while any peer is
// alive, and 503 not_ready when none is, mirroring a single node's "no
// snapshot loaded yet".
func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := co.clusterInfo()
	if info.Degraded {
		writeError(w, r, client.CodeNotReady, "no alive peers")
		return
	}
	alive := 0
	for _, p := range info.Peers {
		if p.Alive {
			alive++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"peers":  len(info.Peers),
		"alive":  alive,
	})
}
