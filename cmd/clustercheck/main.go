// Command clustercheck is the cluster serving layer's end-to-end
// acceptance check, run by CI: it synthesizes the seed corpus, boots three
// full-replica data nodes from v2 (mmap) snapshots on real listeners,
// fronts them with the replica-routing coordinator, and asks two questions a
// single process cannot answer. Does routing through the coordinator
// spread load across replicas? A scaling phase measures the same
// closed-loop lookups through a coordinator over one node and over all
// three, each node's capacity simulated, and requires throughput to scale
// with node count at no cost in latency. Does a snapshot roll through a
// loaded cluster stay invisible to clients? A mixed single/batch loadgen
// workload runs through the coordinator while a roll re-ships the corpus
// replica-by-replica mid-run: zero client-visible errors across the whole
// run, the roll reaches every follower, and the cluster ends healthy with
// every replica alive at the shipped version and the source's snapshot CRC.
//
// Usage:
//
//	clustercheck [-duration 4s] [-scale 1.0] [-seed 42]
//
// Exit status 0 means every assertion held; any failure prints the
// violated assertion and exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mapsynth/internal/cluster"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/loadgen"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

func main() {
	duration := flag.Duration("duration", 4*time.Second, "loadgen run length")
	scale := flag.Float64("scale", 1.0, "corpus scale; 1.0 is the full seed corpus")
	seed := flag.Int64("seed", 42, "corpus seed")
	flag.Parse()
	if err := run(*duration, *scale, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "clustercheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("clustercheck: PASS")
}

func run(duration time.Duration, scale float64, seed int64) error {
	ctx := context.Background()

	// 1. Seed corpus → v2 (mmap) snapshot, the format snapshot shipping
	// moves between replicas.
	fmt.Println("clustercheck: synthesizing seed corpus...")
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, Scale: scale})
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(ctx, corpus.Tables)
	if err != nil {
		return fmt.Errorf("synthesis: %w", err)
	}
	dir, err := os.MkdirTemp("", "clustercheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "seed.v2.snap")
	if err := snapshot.WriteFileV2(snapPath, res.Mappings); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}

	// 2. Three full-replica nodes on real listeners, each mmap-serving the
	// same snapshot with a preload hint — the cmd/serve data-node path.
	// Each node also listens behind a simNode gate for the scaling phase.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	peers := make([]cluster.Peer, 3)
	simPeers := make([]cluster.Peer, len(peers))
	for i := range peers {
		srv, err := serve.New(serve.Options{
			SnapshotPath: snapPath,
			Madvise:      snapshot.AdviseWillNeed,
			CacheSize:    1024,
			Logger:       quiet,
		})
		if err != nil {
			return fmt.Errorf("node %d: %w", i+1, err)
		}
		h := srv.Handler()
		ts := httptest.NewServer(h)
		defer ts.Close()
		peers[i] = cluster.Peer{Name: fmt.Sprintf("n%d", i+1), Addr: ts.URL}
		sim := httptest.NewServer(&simNode{inner: h, slots: make(chan struct{}, simSlots)})
		defer sim.Close()
		simPeers[i] = cluster.Peer{Name: peers[i].Name, Addr: sim.URL}
		fmt.Printf("clustercheck: node %s at %s\n", peers[i].Name, peers[i].Addr)
	}

	// 3. The coordinator, probed and serving on its own listener.
	front, err := startCoordinator(ctx, peers, quiet)
	if err != nil {
		return err
	}
	defer front.Close()
	sdk := client.New(front.URL)

	info, err := sdk.Cluster(ctx)
	if err != nil {
		return fmt.Errorf("GET /v1/cluster: %w", err)
	}
	alive := 0
	for _, p := range info.Peers {
		if p.Alive {
			alive++
		}
	}
	if alive != len(peers) || info.Degraded {
		return fmt.Errorf("cluster not healthy at start: %d/%d alive, degraded=%v",
			alive, len(peers), info.Degraded)
	}

	// 4. Throughput must scale with node count.
	wl, err := loadgen.NewWorkload(res.Mappings)
	if err != nil {
		return err
	}
	if err := checkScaling(ctx, simPeers, wl, seed, quiet); err != nil {
		return err
	}

	// 5. Mixed workload through the coordinator; a quarter of the way in,
	// node n1 receives a freshly written snapshot and the coordinator
	// ships it to the other replicas while the load keeps flowing.
	var (
		wg      sync.WaitGroup
		rollRep *client.RollReport
		rollErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(duration / 4)
		data, err := os.ReadFile(snapPath)
		if err != nil {
			rollErr = err
			return
		}
		if _, err := client.New(peers[0].Addr).Corpus(client.DefaultCorpus).Upload(ctx, data); err != nil {
			rollErr = fmt.Errorf("uploading new snapshot to n1: %w", err)
			return
		}
		rollRep, rollErr = sdk.RollCluster(ctx, client.RollRequest{Source: peers[0].Name})
	}()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:  front.URL,
		Duration: duration,
		Seed:     seed,
	}, wl)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	fmt.Printf("clustercheck: %d requests, %.0f req/s, %d throttled, %d errors\n",
		rep.Requests, rep.AchievedQPS, rep.Throttled, rep.Errors)

	// 6. The verdict.
	if rollErr != nil {
		return fmt.Errorf("replica roll: %w", rollErr)
	}
	if want := len(peers) - 1; len(rollRep.Rolled) != want {
		return fmt.Errorf("roll reached %d replicas, want %d", len(rollRep.Rolled), want)
	}
	fmt.Printf("clustercheck: rolled %d replicas from %s (v%d, %d bytes) in %.0fms\n",
		len(rollRep.Rolled), rollRep.Source, rollRep.SourceVersion, rollRep.Bytes, rollRep.DurationMs)
	if rep.Errors != 0 {
		return fmt.Errorf("clients saw %d errors during the run: %+v", rep.Errors, rep.ErrorSamples)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("loadgen issued no requests")
	}
	info, err = sdk.Cluster(ctx)
	if err != nil {
		return fmt.Errorf("GET /v1/cluster after roll: %w", err)
	}
	// Version numbers are per-node counters; the snapshot CRC is what shows
	// every replica now serves the source's exact image.
	var srcCRC string
	for _, p := range info.Peers {
		if p.Name == rollRep.Source {
			srcCRC = p.Corpora[client.DefaultCorpus].SnapshotCRC
		}
	}
	if srcCRC == "" {
		return fmt.Errorf("roll source %s reports no snapshot_crc after roll", rollRep.Source)
	}
	for _, p := range info.Peers {
		if !p.Alive {
			return fmt.Errorf("peer %s not alive after roll: %s", p.Name, p.Error)
		}
		got := p.Corpora[client.DefaultCorpus]
		if got.Version != rollRep.SourceVersion {
			return fmt.Errorf("peer %s at version %d after roll, want %d", p.Name, got.Version, rollRep.SourceVersion)
		}
		if got.SnapshotCRC != srcCRC {
			return fmt.Errorf("peer %s serves snapshot_crc %s after roll, source %s has %s",
				p.Name, got.SnapshotCRC, rollRep.Source, srcCRC)
		}
	}
	return nil
}

// startCoordinator fronts peers with a coordinator on its own listener,
// probed once before it returns and then until ctx is cancelled.
func startCoordinator(ctx context.Context, peers []cluster.Peer, quiet *slog.Logger) (*httptest.Server, error) {
	topo, err := cluster.NewTopology(peers, 0)
	if err != nil {
		return nil, err
	}
	co, err := cluster.New(topo, cluster.Options{
		ProbeInterval: 250 * time.Millisecond,
		Logger:        quiet,
	})
	if err != nil {
		return nil, err
	}
	co.Start(ctx)
	return httptest.NewServer(co.Handler()), nil
}

// The scaling phase simulates per-node capacity instead of measuring CPU:
// every data node's lookups sit behind a gate of simSlots concurrent
// requests, each dwelling simDwell before the real (microsecond-scale)
// lookup runs. That models an I/O-bound backend — the regime where
// horizontal scaling pays — and makes the scaling ratio reproducible on a
// single-core CI runner, where three in-process nodes could never compute
// in parallel. The coordinator and SDK still do all their real work per
// request, so coordinator-side serialization or routing imbalance shows up
// directly as a ratio below the gate.
const (
	simSlots = 3
	simDwell = 12 * time.Millisecond
	// scaleWorkers closed-loop workers keep every slot of the full
	// cluster busy.
	scaleWorkers = 4 * simSlots
	// scalePhase is long enough for the ratio to mean something: below
	// ~150 requests per phase, connection warmup and histogram resolution
	// dominate it and the gate turns into a coin flip.
	scalePhase = 1500 * time.Millisecond
	// minScalingX gates cluster QPS / solo QPS (the ideal for 3 nodes is
	// 3.0; the margin absorbs runner noise).
	minScalingX = 2.2
	// scaleSlackMs is absolute headroom on the latency gates.
	scaleSlackMs = 5.0
)

// simNode gates a data node's lookups — the only op the scaling phase
// issues — behind a fixed concurrency and a fixed dwell, modeling the
// node's service capacity. Health and admin surfaces pass through ungated
// so probes run at real speed.
type simNode struct {
	inner http.Handler
	slots chan struct{}
}

func (s *simNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/lookup") {
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
		time.Sleep(simDwell)
	}
	s.inner.ServeHTTP(w, r)
}

// checkScaling measures the same closed-loop workload through a
// coordinator over the first simulated node and through one over all of
// them. Lookups only: the cheapest real op, so the simulated dwell — not
// compute — is the per-node bottleneck the coordinator must spread.
func checkScaling(ctx context.Context, peers []cluster.Peer, wl *loadgen.Workload, seed int64, quiet *slog.Logger) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops both coordinators' probers
	measure := func(ps []cluster.Peer) (*loadgen.Report, error) {
		front, err := startCoordinator(ctx, ps, quiet)
		if err != nil {
			return nil, err
		}
		defer front.Close()
		return loadgen.Run(ctx, loadgen.Config{
			BaseURL:     front.URL,
			Duration:    scalePhase,
			Concurrency: scaleWorkers,
			Mix:         map[string]int{loadgen.OpLookup: 1},
			Seed:        seed,
		}, wl)
	}
	soloRep, err := measure(peers[:1])
	if err != nil {
		return fmt.Errorf("scaling, solo phase: %w", err)
	}
	allRep, err := measure(peers)
	if err != nil {
		return fmt.Errorf("scaling, cluster phase: %w", err)
	}
	solo, all := soloRep.Ops[loadgen.OpLookup], allRep.Ops[loadgen.OpLookup]
	if soloRep.Requests == 0 || allRep.Requests == 0 {
		return fmt.Errorf("scaling phase issued no requests (solo %d, cluster %d)", soloRep.Requests, allRep.Requests)
	}
	if n := soloRep.Errors + allRep.Errors; n > 0 {
		return fmt.Errorf("scaling phases saw %d client errors: %+v %+v", n, soloRep.ErrorSamples, allRep.ErrorSamples)
	}
	ratio := allRep.AchievedQPS / soloRep.AchievedQPS
	fmt.Printf("clustercheck: scaling: solo %.0f req/s (p50 %.1fms, p99 %.1fms), %d nodes %.0f req/s (p50 %.1fms, p99 %.1fms), %.2fx\n",
		soloRep.AchievedQPS, solo.P50Ms, solo.P99Ms, len(peers), allRep.AchievedQPS, all.P50Ms, all.P99Ms, ratio)
	if ratio < minScalingX {
		return fmt.Errorf("cluster qps %.1f is only %.2fx solo qps %.1f (want >= %.1fx across %d nodes)",
			allRep.AchievedQPS, ratio, soloRep.AchievedQPS, minScalingX, len(peers))
	}
	// Latency gates. Measured quantiles are power-of-two histogram bucket
	// upper bounds, so at the solo phase's queueing level one bucket spans
	// tens of ms. The median must be strictly equal-or-better — it has
	// several buckets of headroom and is immune to tail noise. The p99 is
	// allowed one bucket step (2x) over solo: on a single-core runner one
	// ~tens-of-ms scheduler stall pushes a handful of tail samples a full
	// bucket up, while a genuine queueing pathology shows up as multiple
	// bucket steps (and sinks the scaling ratio besides).
	if all.P50Ms > solo.P50Ms+scaleSlackMs {
		return fmt.Errorf("cluster p50 %.2fms exceeds solo p50 %.2fms + %.0fms slack — scaling bought no latency",
			all.P50Ms, solo.P50Ms, scaleSlackMs)
	}
	if all.P99Ms > 2*solo.P99Ms+scaleSlackMs {
		return fmt.Errorf("cluster p99 %.2fms exceeds one bucket over solo p99 %.2fms — tail regression beyond runner noise",
			all.P99Ms, solo.P99Ms)
	}
	return nil
}
