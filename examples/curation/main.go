// Curation workflow (Section 4.3 + Appendix I of the paper): synthesize
// mappings, rank them by popularity for human review, grow a robust core
// from a trusted feed, and diff the refreshed result against the previous
// run so a curator only re-reviews what changed. The refreshed set then
// goes live the way a production rollout does: both generations are
// persisted as snapshots, the old one is served over the v1 API, and the
// new one is hot-swapped in through pkg/client's Reload.
//
// Run with: go run ./examples/curation
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/curation"
	"mapsynth/internal/expansion"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/refdata"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
	"mapsynth/pkg/client"
)

// feedTableIDBase keeps synthetic trusted-feed table IDs clear of corpus
// table IDs.
const feedTableIDBase = 1 << 20

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("generating web corpus and synthesizing mappings...")
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42})
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), corpus.Tables)
	if err != nil {
		return err
	}

	// 1. Curation view: popularity-ranked report of the clusters a human
	// would inspect (the paper reviews only mappings from >= 8 domains).
	reviewable := curation.Filter(res.Mappings, 8, 8, 10)
	fmt.Printf("\n%d of %d mappings pass the popularity bar (>= 8 domains); top of the review queue:\n\n",
		len(reviewable), len(res.Mappings))
	if err := curation.Report(os.Stdout, reviewable, 8); err != nil {
		return err
	}

	// 2. Refresh: expand robust cores from a trusted feed (Appendix I) and
	// alert the curator about what changed.
	feed := &expansion.TrustedSource{Name: "data.gov/airports"}
	for _, p := range refdata.AirportExpansionPairs() {
		feed.Pairs = append(feed.Pairs, table.Pair{L: p[0], R: p[1]})
	}
	var refreshed []*mapping.Mapping
	expandedCount := 0
	for _, m := range res.Mappings {
		pairs, info := expansion.Expand(m, []*expansion.TrustedSource{feed}, expansion.DefaultOptions())
		if info.PairsAdded == 0 {
			refreshed = append(refreshed, m)
			continue
		}
		expandedCount++
		// Rebuild the mapping over the expanded pair list; provenance of
		// the additions is the trusted feed. The synthetic table ID sits in
		// its own range above corpus IDs (the snapshot codec requires
		// non-negative candidate IDs).
		expandedTable := &table.BinaryTable{
			ID: feedTableIDBase + m.ID, TableID: feedTableIDBase + m.ID,
			Domain: feed.Name, Pairs: pairs,
		}
		refreshed = append(refreshed, mapping.Build(m.ID, []*table.BinaryTable{expandedTable}))
	}
	fmt.Printf("\nexpansion grew %d mapping(s) from %s\n", expandedCount, feed.Name)

	diffs := curation.ChangedOnly(curation.Diff(res.Mappings, refreshed))
	fmt.Printf("refresh diff: %d mapping(s) need curator re-review\n", len(diffs))
	for i, d := range diffs {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(diffs)-5)
			break
		}
		fmt.Printf("  mapping %d -> %d: +%d pairs, -%d pairs (overlap %d)\n",
			d.OldID, d.NewID, len(d.Added), len(d.Removed), d.Overlap)
		for j, a := range d.Added {
			if j >= 3 {
				break
			}
			l, r := textnorm.SplitPairKey(a)
			fmt.Printf("      added: %s -> %s\n", l, r)
		}
	}

	// 3. Go live: serve the pre-refresh snapshot, then hot-swap the curated
	// refresh in through the SDK — the rollout is one Reload call, and
	// in-flight queries keep answering from the state they started with.
	dir, err := os.MkdirTemp("", "mapsynth-curation-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	oldSnap := filepath.Join(dir, "old.snap")
	newSnap := filepath.Join(dir, "refreshed.snap")
	if err := snapshot.WriteFileV2(oldSnap, res.Mappings); err != nil {
		return err
	}
	if err := snapshot.WriteFileV2(newSnap, refreshed); err != nil {
		return err
	}

	srv, err := serve.New(serve.Options{SnapshotPath: oldSnap, CacheSize: 256})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()

	// Probe with a key the refresh touched, before and after the rollout.
	probe := ""
	if len(diffs) > 0 && len(diffs[0].Added) > 0 {
		probe, _ = textnorm.SplitPairKey(diffs[0].Added[0])
	}
	fmt.Printf("\nserving pre-refresh snapshot (%d mappings)\n", len(res.Mappings))
	showProbe := func(when string) error {
		if probe == "" {
			return nil
		}
		resp, err := c.Lookup(ctx, probe)
		if err != nil {
			return err
		}
		fmt.Printf("  lookup %q %s rollout: found=%v value=%q\n", probe, when, resp.Found, resp.Value)
		return nil
	}
	if err := showProbe("before"); err != nil {
		return err
	}
	rr, err := c.Reload(ctx, client.ReloadRequest{Snapshot: newSnap})
	if err != nil {
		return err
	}
	fmt.Printf("hot-swapped refreshed snapshot in %.1fms (%d mappings live)\n", rr.DurationMs, rr.Mappings)
	return showProbe("after")
}
