// Multi-corpus serving: one process hosting several named corpora, each
// synthesized from a different table corpus — the deployment shape of a
// real mapping service, where country codes, tickers and airports are
// separate mapping sets with separate lifecycles.
//
// The program synthesizes two seed corpora (web and enterprise), serves
// them as the "default" and "enterprise" corpora of one server, queries
// both through the SDK's corpus-scoped handles, and then walks the
// lifecycle API: replace the enterprise corpus with a refreshed snapshot,
// roll the replacement back, and re-activate it by version — all while the
// default corpus keeps serving untouched.
//
// Run with: go run ./examples/multicorpus
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Offline: synthesize two independent corpora and persist each as a
	// snapshot, exactly as two `synthesize -snapshot` runs would.
	dir, err := os.MkdirTemp("", "mapsynth-multicorpus-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Println("synthesizing web corpus (default) and enterprise corpus...")
	ctx := context.Background()
	engine := pipeline.New(pipeline.DefaultConfig())
	web, err := engine.Run(ctx, corpusgen.GenerateWeb(corpusgen.Options{Seed: 42}).Tables)
	if err != nil {
		return err
	}
	ent, err := engine.Run(ctx, corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 42}).Tables)
	if err != nil {
		return err
	}
	webSnap := filepath.Join(dir, "web.snap")
	entSnap := filepath.Join(dir, "enterprise.snap")
	if err := snapshot.WriteFileV2(webSnap, web.Mappings); err != nil {
		return err
	}
	if err := snapshot.WriteFileV2(entSnap, ent.Mappings); err != nil {
		return err
	}

	// 2. Online: one server, two corpora. The equivalent CLI invocation is
	//   serve -snapshot web.snap -corpus enterprise=enterprise.snap
	srv, err := serve.New(serve.Options{
		SnapshotPath: webSnap,
		Corpora:      map[string]string{"enterprise": entSnap},
		CacheSize:    256,
	})
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

	infos, err := c.Corpora(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\none process, %d corpora:\n", len(infos))
	for _, info := range infos {
		fmt.Printf("  %-10s version %d: %5d mappings, %6d pairs (%s)\n",
			info.Name, info.Version, info.Mappings, info.Pairs, filepath.Base(info.Snapshot))
	}

	// 3. Query both corpora through scoped handles. The unscoped client
	// methods are exactly the default corpus's scoped ones.
	enterprise := c.Corpus("enterprise")
	webKey := firstKey(web.Mappings)
	entKey := firstKey(ent.Mappings)
	if resp, err := c.Lookup(ctx, webKey); err == nil && resp.Found {
		fmt.Printf("\ndefault    lookup %-24q -> %q\n", webKey, resp.Value)
	}
	if resp, err := enterprise.Lookup(ctx, entKey); err == nil && resp.Found {
		fmt.Printf("enterprise lookup %-24q -> %q\n", entKey, resp.Value)
	}
	// A key from one domain does not leak into the other corpus.
	if resp, err := enterprise.Lookup(ctx, webKey); err == nil && !resp.Found {
		fmt.Printf("enterprise lookup %-24q -> (not in this corpus)\n", webKey)
	}

	// 4. Lifecycle: replace the enterprise corpus with a refreshed
	// generation, roll it back, then re-activate it by version. Every
	// swap is atomic; the default corpus never notices.
	refreshed, err := engine.Run(ctx, corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 7}).Tables)
	if err != nil {
		return err
	}
	refreshedSnap := filepath.Join(dir, "enterprise-v2.snap")
	if err := snapshot.WriteFileV2(refreshedSnap, refreshed.Mappings); err != nil {
		return err
	}
	put, err := enterprise.Put(ctx, client.PutCorpusRequest{Snapshot: refreshedSnap})
	if err != nil {
		return err
	}
	fmt.Printf("\nreplaced enterprise corpus: version %d -> %d (%d mappings live)\n",
		put.Version-1, put.Version, put.Mappings)

	back, err := enterprise.Rollback(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("rolled back:  version %d live again (was %d)\n", back.Version, back.PreviousVersion)

	again, err := enterprise.Activate(ctx, put.Version)
	if err != nil {
		return err
	}
	fmt.Printf("re-activated: version %d live again (was %d)\n", again.Version, again.PreviousVersion)

	// 5. Per-corpus observability: each corpus carries its own counters.
	defStats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	entStats, err := enterprise.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nindependent stats: default served %d lookups, enterprise %d\n",
		defStats.Endpoints["lookup"].Requests, entStats.Endpoints["lookup"].Requests)
	return nil
}

// firstKey picks a deterministic probe key from a synthesized mapping set:
// the first pair of the mapping backed by the most domains.
func firstKey(maps []*mapping.Mapping) string {
	var best *mapping.Mapping
	for _, m := range maps {
		if len(m.Pairs) == 0 {
			continue
		}
		if best == nil || m.NumDomains() > best.NumDomains() {
			best = m
		}
	}
	if best == nil {
		return ""
	}
	return best.Pairs[0].L
}
