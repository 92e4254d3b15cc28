package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mapsynth/pkg/client"
)

// Roll ships one corpus's snapshot across the replica set: download the
// source peer's live v2 bytes, then upload them to every other alive peer
// one at a time. Each upload is an atomic version swap node-side, and the
// walk is strictly sequential, so at any instant at most one replica is
// mid-install and the rest serve — a corpus reload with zero cluster-wide
// downtime. source == "" picks the alive replica with the highest probed
// version; after the walk every touched peer is re-probed so version-aware
// routing sees the new state immediately.
//
// Every follower receives the same full image and verifies it completely
// before installing it: at the sizes served here that is faster than
// building and applying a delta on any link above ~15 MB/s, because a
// delta decodes and re-encodes the whole corpus (docs/cluster.md).
func (co *Coordinator) Roll(ctx context.Context, corpus, source string) (*client.RollReport, error) {
	t0 := time.Now()
	if corpus == "" {
		corpus = client.DefaultCorpus
	}
	src, err := co.rollSource(corpus, source)
	if err != nil {
		return nil, err
	}
	data, version, err := src.cli.Corpus(corpus).Snapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: downloading %s/%s: %w", src.peer.Name, corpus, err)
	}
	rep := &client.RollReport{
		Corpus:        corpus,
		Source:        src.peer.Name,
		SourceVersion: version,
		Bytes:         int64(len(data)),
	}
	for _, pc := range co.peers {
		if pc == src || !pc.status.Load().alive {
			continue
		}
		put, err := pc.cli.Corpus(corpus).Upload(ctx, data)
		if err != nil {
			// Stop the walk at the first failure: the already-rolled peers
			// keep the new state (every install was atomic), the rest keep
			// the old, and the operator re-rolls after fixing the peer.
			return rep, fmt.Errorf("cluster: uploading to %s (rolled %d peers): %w",
				pc.peer.Name, len(rep.Rolled), err)
		}
		co.log.Info("replica rolled", "peer", pc.peer.Name, "corpus", corpus,
			"version", put.Version, "bytes", len(data))
		rep.Rolled = append(rep.Rolled, client.RolledPeer{
			Peer: pc.peer.Name, Version: put.Version, Bytes: int64(len(data))})
		rep.ShippedBytes += int64(len(data))
		co.probePeer(ctx, pc)
	}
	co.probePeer(ctx, src)
	rep.DurationMs = float64(time.Since(t0).Microseconds()) / 1000
	return rep, nil
}

// rollSource resolves the peer to ship from: the named one (which must be
// alive and hold the corpus), or the alive peer with the highest probed
// version of the corpus.
func (co *Coordinator) rollSource(corpus, source string) (*peerConn, error) {
	if source != "" {
		for _, pc := range co.peers {
			if pc.peer.Name != source {
				continue
			}
			if !pc.status.Load().alive {
				return nil, fmt.Errorf("cluster: roll source %q is not alive", source)
			}
			return pc, nil
		}
		return nil, fmt.Errorf("cluster: no peer named %q", source)
	}
	var best *peerConn
	bestVer := int64(-1)
	for _, pc := range co.peers {
		st := pc.status.Load()
		if !st.alive {
			continue
		}
		if ch, ok := st.corpora[corpus]; ok && ch.Version > bestVer {
			best, bestVer = pc, ch.Version
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cluster: no alive peer holds corpus %q", corpus)
	}
	return best, nil
}

// handleRoll is POST /v1/cluster/roll, the HTTP face of Roll.
func (co *Coordinator) handleRoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, client.CodeMethodNotAllowed, "POST required")
		return
	}
	var req client.RollRequest
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err.Error() != "EOF" {
			writeError(w, r, client.CodeBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	rep, err := co.Roll(r.Context(), req.Corpus, req.Source)
	if err != nil {
		if rep != nil && len(rep.Rolled) > 0 {
			// A partial roll is reported as unprocessable with the progress
			// embedded, so the operator knows exactly which replicas moved.
			writeJSON(w, http.StatusUnprocessableEntity, client.ErrorEnvelope{
				Error: client.ErrorBody{
					Code:      client.CodeUnprocessable,
					Message:   err.Error(),
					RequestID: requestID(r),
				},
				Rolled: rep.Rolled,
			})
			return
		}
		writeError(w, r, client.CodeUnprocessable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
