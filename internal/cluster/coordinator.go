package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"mapsynth/pkg/client"
)

// Options configures a Coordinator.
type Options struct {
	// PeerTimeout bounds every proxied peer call, probe and roll
	// transfer; <= 0 selects 10s.
	PeerTimeout time.Duration
	// ProbeInterval paces the background health prober; <= 0 selects 2s.
	ProbeInterval time.Duration
	// Logger receives structured coordinator logs; nil discards them.
	Logger *slog.Logger
}

// peerConn is one peer plus its runtime machinery: a typed SDK client for
// probes and rolls, a reverse proxy for point-to-point routing, and the
// latest probe result.
type peerConn struct {
	peer   Peer
	cli    *client.Client
	proxy  *httputil.ReverseProxy
	status atomic.Pointer[peerStatus]
}

// peerStatus is one probe's outcome.
type peerStatus struct {
	alive   bool
	err     string
	probed  time.Time
	corpora map[string]client.CorpusHealth
}

// Coordinator fronts a topology of serve peers as one logical service; see
// the package comment for the routing rules.
type Coordinator struct {
	topo  *Topology
	peers []*peerConn
	opts  Options
	log   *slog.Logger
	rr    atomic.Uint64
}

// New validates the topology and returns a Coordinator. Peers start
// unprobed (not alive); call Start or ProbeOnce before serving traffic.
func New(topo *Topology, opts Options) (*Coordinator, error) {
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 10 * time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	hc := &http.Client{Timeout: opts.PeerTimeout}
	co := &Coordinator{topo: topo, opts: opts, log: log}
	for i := range topo.Peers {
		p := topo.Peers[i]
		target, err := url.Parse(p.Addr)
		if err != nil {
			return nil, err
		}
		pc := &peerConn{
			peer: p,
			// Zero SDK retries: the coordinator's job is honest routing,
			// not hiding peer 429s from clients.
			cli: client.New(p.Addr, client.WithHTTPClient(hc), client.WithRetries(0)),
		}
		proxy := httputil.NewSingleHostReverseProxy(target)
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			// The client hanging up mid-proxy (context canceled) says
			// nothing about the peer — only a peer-side failure (transport
			// error or the per-peer deadline) marks it dead so the next
			// request routes around it; the prober rediscovers it later.
			if r.Context().Err() != nil && !errors.Is(context.Cause(r.Context()), errPeerTimeout) {
				return
			}
			pc.markDead(err)
			co.log.Warn("peer proxy failed", "peer", p.Name, "error", err, "request_id", requestID(r))
			writeError(w, r, client.CodeNotReady, "peer "+p.Name+" unreachable: "+err.Error())
		}
		pc.proxy = proxy
		pc.status.Store(&peerStatus{})
		co.peers = append(co.peers, pc)
	}
	return co, nil
}

// errPeerTimeout is the cause stamped on the per-peer proxy deadline, so
// the proxy's ErrorHandler can tell "the peer is too slow" (mark it dead)
// from "the client hung up" (not the peer's fault).
var errPeerTimeout = errors.New("cluster: peer deadline exceeded")

func (pc *peerConn) markDead(err error) {
	old := pc.status.Load()
	pc.status.Store(&peerStatus{
		alive:   false,
		err:     err.Error(),
		probed:  time.Now(),
		corpora: old.corpora,
	})
}

// Topology returns the static layout the coordinator serves.
func (co *Coordinator) Topology() *Topology { return co.topo }

// Start launches the background health prober (one immediate probe, then
// every ProbeInterval) until ctx is cancelled.
func (co *Coordinator) Start(ctx context.Context) {
	co.ProbeOnce(ctx)
	go func() {
		t := time.NewTicker(co.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				co.ProbeOnce(ctx)
			}
		}
	}()
}

// Handler returns the coordinator's HTTP surface: the cluster endpoints
// plus a catch-all that routes every other path to peers.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster", co.getOnly(co.handleCluster))
	mux.HandleFunc("/v1/cluster/roll", co.handleRoll)
	mux.HandleFunc("/v1/healthz", co.getOnly(co.handleHealthz))
	mux.HandleFunc("/", co.route)
	return withRequestID(mux)
}

func (co *Coordinator) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, r, client.CodeMethodNotAllowed, "GET required")
			return
		}
		h(w, r)
	}
}

// corpusOf extracts the corpus a path targets: the {name} segment of
// /v1/corpora/{name}/..., the default corpus for every unscoped path.
func corpusOf(path string) string {
	const pfx = "/v1/corpora/"
	if !strings.HasPrefix(path, pfx) {
		return client.DefaultCorpus
	}
	rest := path[len(pfx):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return client.DefaultCorpus
	}
	return rest
}

// route is the per-request data path: reverse-proxy to an alive replica at
// the freshest probed version of the target corpus, round-robin among
// equals; with no replica alive, answer 503 not_ready.
func (co *Coordinator) route(w http.ResponseWriter, r *http.Request) {
	pc := co.pickReplica(corpusOf(r.URL.Path))
	if pc == nil {
		writeError(w, r, client.CodeNotReady, "no alive peers")
		return
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), co.opts.PeerTimeout, errPeerTimeout)
	defer cancel()
	pc.proxy.ServeHTTP(w, r.WithContext(ctx))
}

// pickReplica returns the next alive peer serving the corpus at the
// freshest probed version, round-robin among the peers tied for freshest;
// nil when none is alive.
func (co *Coordinator) pickReplica(corpus string) *peerConn {
	var best []*peerConn
	bestVer := int64(-1)
	for _, pc := range co.peers {
		st := pc.status.Load()
		if !st.alive {
			continue
		}
		ver := int64(0)
		if ch, ok := st.corpora[corpus]; ok {
			ver = ch.Version
		}
		switch {
		case ver > bestVer:
			bestVer, best = ver, best[:0]
			best = append(best, pc)
		case ver == bestVer:
			best = append(best, pc)
		}
	}
	if len(best) == 0 {
		return nil
	}
	return best[int(co.rr.Add(1)-1)%len(best)]
}

// ---- error envelope + request IDs ----
//
// The coordinator answers errors with pkg/client's envelope and codes, the
// ones every node speaks, so clients cannot tell a coordinator error from
// a node error.

func writeError(w http.ResponseWriter, r *http.Request, code, msg string) {
	writeJSON(w, client.StatusOf(code), client.ErrorEnvelope{Error: client.ErrorBody{
		Code:      code,
		Message:   msg,
		RequestID: requestID(r),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type ctxKey int

const requestIDKey ctxKey = iota

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// withRequestID assigns every request an ID (the client's plausible
// X-Request-ID or a fresh one), echoes it in the response header, and —
// crucially for a coordinator — stamps it on the request itself so proxied
// peer calls carry the same ID end to end.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := clientRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = newRequestID()
			r.Header.Set("X-Request-ID", id)
		}
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

func clientRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return ""
		}
	}
	return s
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
