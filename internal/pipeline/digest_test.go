package pipeline

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"mapsynth/internal/compat"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/strmatch"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// testdata/engine_digests.txt pins, per corpus and configuration, the
// sha256 and length of snapshot.WriteV2(res.Mappings). It is the net under
// every rewrite of the graph, partition and resolve stages:
// synthesizeReference calls the same compat/conflict/mapping functions the
// engine does, so it cannot catch a change that moves both.
//
// The file was generated at commit 0b93e56 (before the interned candidate
// view, fused blocking and flat edge list existed) with
//
//	go test ./internal/pipeline -run TestEngineDigestsPinned -update-digests
//
// which runs each case below with Workers 1 and writes "name sha256 bytes"
// lines, and this test passed there as it stands, minus the Result.Blocking
// assertion, which arrived with the counters it reads. Regenerate only for a
// change that means to alter synthesis output.
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/engine_digests.txt from the current engine")

const digestFile = "testdata/engine_digests.txt"

// benchCorpusDigest is the v2 image of the corpus bench/ synthesizes
// (GenerateWeb seed 42, scale 2): the one digest BENCHMARK-side artifacts
// (snapshot.bytes, bytes_per_pair) are derived from.
const benchCorpusDigest = "6f262f52596f9e8335007edf0ee9e991b647d2f54de608d2d26c3994124a1155 2329408"

type digestCase struct {
	name   string
	corpus func() *corpusgen.Corpus
	cfg    func(*Config, *corpusgen.Corpus)
	long   bool // skipped under -short
}

func webCorpus(seed int64, scale float64) func() *corpusgen.Corpus {
	return func() *corpusgen.Corpus {
		return corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, Scale: scale})
	}
}

// corpusSynonyms builds a synonym feed from the ground-truth entities of the
// corpus: every entity's surface forms become one group. Reversed relations
// put those forms on the right-hand side, so the feed reaches both w+
// residual matching and conflict detection.
func corpusSynonyms(c *corpusgen.Corpus) *strmatch.SynonymFeed {
	feed := strmatch.NewSynonymFeed()
	for _, r := range c.AllRelations() {
		for _, p := range r.Pairs {
			forms := p.Left.Forms()
			if len(forms) < 2 {
				continue
			}
			norm := make([]string, len(forms))
			for i, f := range forms {
				norm[i] = textnorm.Normalize(f)
			}
			feed.AddGroup(norm...)
		}
	}
	return feed
}

func digestCases() []digestCase {
	return []digestCase{
		{name: "web-seed1", corpus: webCorpus(1, 1)},
		{name: "web-seed7", corpus: webCorpus(7, 1)},
		{name: "web-seed42", corpus: webCorpus(42, 1)},
		{name: "web-seed42-scale2", corpus: webCorpus(42, 2), long: true},
		{name: "enterprise-seed42", corpus: func() *corpusgen.Corpus {
			return corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 42})
		}},
		{name: "web-seed42-majority", corpus: webCorpus(42, 1),
			cfg: func(c *Config, _ *corpusgen.Corpus) { c.Resolution = ResolveMajority }},
		{name: "web-seed42-noresolve", corpus: webCorpus(42, 1),
			cfg: func(c *Config, _ *corpusgen.Corpus) { c.Resolution = ResolveNone }},
		{name: "web-seed42-noneg", corpus: webCorpus(42, 1),
			cfg: func(c *Config, _ *corpusgen.Corpus) { c.DisableNegativeSignal = true }},
		{name: "web-seed42-mindomains2", corpus: webCorpus(42, 1),
			cfg: func(c *Config, _ *corpusgen.Corpus) { c.MinDomains = 2 }},
		{name: "web-seed42-synonyms", corpus: webCorpus(42, 1),
			cfg: func(c *Config, corpus *corpusgen.Corpus) { c.Synonyms = corpusSynonyms(corpus) }},
	}
}

func digestOf(t *testing.T, res *Result) string {
	t.Helper()
	img := encode(t, res.Mappings)
	sum := sha256.Sum256(img)
	return fmt.Sprintf("%s %d", hex.EncodeToString(sum[:]), len(img))
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineDigestsPinned recomputes every pinned digest three ways — one
// worker, GOMAXPROCS workers (at least 2, so the parallel path runs even on
// a one-CPU host), and RunIncremental fed the corpus in three batches — and
// requires each to equal the committed line. Under -short only the parallel
// run is made and the scale-2 corpus is skipped.
func TestEngineDigestsPinned(t *testing.T) {
	cases := digestCases()
	if *updateDigests {
		var sb strings.Builder
		sb.WriteString("# name sha256(snapshot.WriteV2(res.Mappings)) bytes — see digest_test.go\n")
		for _, dc := range cases {
			corpus := dc.corpus()
			cfg := DefaultConfig()
			if dc.cfg != nil {
				dc.cfg(&cfg, corpus)
			}
			cfg.Workers = 1
			res, err := New(cfg).Run(context.Background(), corpus.Tables)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %s\n", dc.name, digestOf(t, res))
		}
		if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readDigests(t)
	if want["web-seed42-scale2"] != benchCorpusDigest {
		t.Fatalf("%s: bench corpus digest is %q, want %q", digestFile, want["web-seed42-scale2"], benchCorpusDigest)
	}
	parallel := max(runtime.GOMAXPROCS(0), 2)
	for _, dc := range cases {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			if dc.long && testing.Short() {
				t.Skip("scale-2 corpus")
			}
			if want[dc.name] == "" {
				t.Fatalf("no pinned digest for %s", dc.name)
			}
			corpus := dc.corpus()
			cfg := DefaultConfig()
			if dc.cfg != nil {
				dc.cfg(&cfg, corpus)
			}
			ctx := context.Background()
			check := func(mode string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if got := digestOf(t, res); got != want[dc.name] {
					t.Errorf("%s: digest %s, pinned %s", mode, got, want[dc.name])
				}
				// On the bench corpus no posting list reaches blocking's
				// stop-word cap (the longest are 71 and 328): a non-zero
				// counter means the cap started to bite.
				if dc.long && res.Blocking != (compat.BlockStats{}) {
					t.Errorf("%s: blocking cap skipped keys on the bench corpus: %+v", mode, res.Blocking)
				}
			}

			cfg.Workers = parallel
			res, err := New(cfg).Run(ctx, corpus.Tables)
			check(fmt.Sprintf("workers=%d", parallel), res, err)
			if testing.Short() {
				return
			}

			cfg.Workers = 1
			res, err = New(cfg).Run(ctx, corpus.Tables)
			check("workers=1", res, err)

			// RunIncremental falls back to Run for configurations its
			// cache cannot key; feeding those in batches proves nothing new.
			if cfg.Resolution != ResolveGreedy || cfg.Synonyms != nil {
				return
			}
			cfg.Workers = parallel
			eng, inc := New(cfg), NewIncrementalState()
			n := len(corpus.Tables)
			for _, upto := range []int{n / 3, 2 * n / 3, n} {
				res, err = eng.RunIncremental(ctx, append([]*table.Table(nil), corpus.Tables[:upto]...), inc)
				if err != nil {
					t.Fatalf("incremental upto %d: %v", upto, err)
				}
			}
			check("incremental 3 batches", res, err)
		})
	}
}
