// Command ingestcheck is the live-ingestion subsystem's end-to-end
// acceptance check, run by CI. It synthesizes a base corpus with one table
// held out, boots an ingest-enabled source node and a follower replica
// behind the replica-routing coordinator, then proves the whole loop:
//
//  1. The held-out table streams in through POST /v1/corpora/{name}/tables
//     and the staleness report converges (applied LSN == head LSN).
//  2. The incrementally synthesized snapshot is byte-identical to a
//     from-scratch rebuild over base+ingested tables.
//  3. POST /v1/reload {"rebuild":true} leaves that snapshot byte-identical:
//     a rebuild re-synthesizes the base plus the applied ingested tables.
//  4. A cluster roll ships the source's full image to the follower, and
//     the follower's snapshot comes out byte-identical.
//
// Usage:
//
//	ingestcheck [-scale 0.5] [-seed 42]
//
// Exit status 0 means every assertion held; any failure prints the
// violated assertion and exits 1.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"time"

	"mapsynth/internal/cluster"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

func main() {
	scale := flag.Float64("scale", 0.5, "corpus scale; 1.0 is the full seed corpus")
	seed := flag.Int64("seed", 42, "corpus seed")
	flag.Parse()
	if err := run(*scale, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "ingestcheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ingestcheck: PASS")
}

func run(scale float64, seed int64) error {
	ctx := context.Background()

	// 1. Seed corpus with the last table held out: the base is what the
	// source serves at boot, the held table is what live ingestion adds.
	fmt.Println("ingestcheck: synthesizing base corpus...")
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, Scale: scale})
	if len(corpus.Tables) < 2 {
		return fmt.Errorf("corpus too small: %d tables", len(corpus.Tables))
	}
	base := corpus.Tables[:len(corpus.Tables)-1]
	held := corpus.Tables[len(corpus.Tables)-1]
	cfg := pipeline.DefaultConfig()
	baseRes, err := pipeline.New(cfg).Run(ctx, base)
	if err != nil {
		return fmt.Errorf("base synthesis: %w", err)
	}

	// 2. Source node with ingestion enabled, follower without, both
	// serving the base mappings.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ingestDir, err := os.MkdirTemp("", "ingestcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ingestDir)
	source := serve.NewFromMappings(baseRes.Mappings, serve.Options{
		CacheSize: 1024,
		IngestDir: ingestDir,
		Tables:    base,
		Synthesis: &cfg,
		Logger:    quiet,
	})
	defer source.Close()
	follower := serve.NewFromMappings(baseRes.Mappings, serve.Options{CacheSize: 1024, Logger: quiet})
	tsSource := httptest.NewServer(source.Handler())
	defer tsSource.Close()
	tsFollower := httptest.NewServer(follower.Handler())
	defer tsFollower.Close()

	topo, err := cluster.NewTopology([]cluster.Peer{
		{Name: "source", Addr: tsSource.URL},
		{Name: "follower", Addr: tsFollower.URL},
	}, 0)
	if err != nil {
		return err
	}
	co, err := cluster.New(topo, cluster.Options{
		ProbeInterval: 100 * time.Millisecond,
		Logger:        quiet,
	})
	if err != nil {
		return err
	}
	co.Start(ctx)
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	sdk := client.New(front.URL)

	// 3. Stream the held-out table in with wait=1: acceptance means the
	// row is fsynced to the append log, and the trailer reports the
	// incremental synthesis run that folded it into a live version.
	src := client.New(tsSource.URL).Corpus(client.DefaultCorpus)
	trailer, err := src.IngestTables(ctx, []client.IngestTable{ingestTableOf(held)},
		client.IngestOptions{Wait: true}, nil)
	if err != nil {
		return fmt.Errorf("ingesting held-out table: %w", err)
	}
	if trailer.Accepted != 1 || trailer.Synthesis != "applied" {
		return fmt.Errorf("ingest trailer = %+v, want 1 accepted/applied", trailer)
	}
	if trailer.AppliedLSN != trailer.HeadLSN {
		return fmt.Errorf("staleness did not converge: applied %d, head %d",
			trailer.AppliedLSN, trailer.HeadLSN)
	}
	info, err := src.Get(ctx)
	if err != nil {
		return err
	}
	if info.Ingest == nil || info.Ingest.Pending || info.Ingest.AppliedLSN != info.Ingest.HeadLSN {
		return fmt.Errorf("corpus staleness report not converged: %+v", info.Ingest)
	}
	fmt.Printf("ingestcheck: ingested table applied at LSN %d, version %d (cache %d hits / %d misses)\n",
		trailer.AppliedLSN, trailer.Version, info.Ingest.CacheHits, info.Ingest.CacheMisses)

	// 4. Parity: the incrementally synthesized live snapshot must be
	// byte-identical to a from-scratch rebuild over base+held.
	liveSnap, _, err := src.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("downloading live snapshot: %w", err)
	}
	fullRes, err := pipeline.New(cfg).Run(ctx, corpus.Tables)
	if err != nil {
		return fmt.Errorf("from-scratch synthesis: %w", err)
	}
	var fullSnap bytes.Buffer
	if err := snapshot.WriteV2(&fullSnap, fullRes.Mappings); err != nil {
		return err
	}
	if !bytes.Equal(liveSnap, fullSnap.Bytes()) {
		return fmt.Errorf("incremental snapshot (%d bytes) differs from from-scratch rebuild (%d bytes)",
			len(liveSnap), fullSnap.Len())
	}
	fmt.Printf("ingestcheck: incremental synthesis byte-identical to full rebuild (%d mappings, %d bytes)\n",
		len(fullRes.Mappings), len(liveSnap))

	// 5. Rebuild: re-synthesizing the base plus the applied ingested table
	// must leave the snapshot byte-identical.
	if _, err := client.New(tsSource.URL).Reload(ctx, client.ReloadRequest{Rebuild: true}); err != nil {
		return fmt.Errorf("rebuild reload: %w", err)
	}
	if rebuilt, _, err := src.Snapshot(ctx); err != nil || !bytes.Equal(rebuilt, fullSnap.Bytes()) {
		return fmt.Errorf("snapshot after rebuild (%d bytes, %v) differs from from-scratch base+held (%d bytes)",
			len(rebuilt), err, fullSnap.Len())
	}
	fmt.Println("ingestcheck: rebuild kept the ingested table, snapshot byte-identical")

	// 6. Wait for the coordinator to see both nodes alive: a roll skips
	// peers it has not probed alive.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ci, err := sdk.Cluster(ctx)
		if err == nil {
			alive := 0
			for _, p := range ci.Peers {
				if p.Alive {
					alive++
				}
			}
			if alive == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator never probed both replicas alive")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 7. Roll: the follower receives the source's full image and must come
	// out byte-identical.
	rep, err := sdk.RollCluster(ctx, client.RollRequest{Source: "source"})
	if err != nil {
		return fmt.Errorf("roll: %w", err)
	}
	if len(rep.Rolled) != 1 {
		return fmt.Errorf("roll reached %d replicas, want 1: %+v", len(rep.Rolled), rep)
	}
	if rolled := rep.Rolled[0]; rolled.Bytes != int64(len(liveSnap)) || rep.ShippedBytes != rolled.Bytes {
		return fmt.Errorf("roll shipped %d bytes (report total %d), want the %d-byte full image",
			rolled.Bytes, rep.ShippedBytes, len(liveSnap))
	}
	fmt.Printf("ingestcheck: roll shipped %d bytes in %.0fms\n", rep.ShippedBytes, rep.DurationMs)
	followerSnap, _, err := client.New(tsFollower.URL).Corpus(client.DefaultCorpus).Snapshot(ctx)
	if err != nil {
		return err
	}
	if !bytes.Equal(followerSnap, liveSnap) {
		return fmt.Errorf("follower snapshot differs from source after roll")
	}
	return nil
}

// ingestTableOf converts a generated corpus table into its wire form.
func ingestTableOf(tab *table.Table) client.IngestTable {
	it := client.IngestTable{Domain: tab.Domain, Title: tab.Title}
	for _, c := range tab.Columns {
		it.Columns = append(it.Columns, client.IngestColumn{Name: c.Name, Values: c.Values})
	}
	return it
}
