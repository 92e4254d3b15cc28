// Command synthesize runs the full mapping-synthesis pipeline over a
// generated corpus and prints the most popular synthesized mappings — the
// curation view of Section 4.3 of the paper.
//
// Usage:
//
//	synthesize [-profile web|enterprise] [-seed N] [-corpus corpus.json]
//	           [-top K] [-min-domains D] [-workers N] [-v]
//	           [-cpuprofile FILE] [-memprofile FILE] [-snapshot FILE]
//
// By default the corpus is generated in-process; -corpus instead reads a
// JSON corpus exported by cmd/corpusgen, making the full artifact loop
// corpusgen -> synthesize -> serve -> loadgen explicit.
//
// It drives the staged internal/pipeline engine directly: -workers bounds
// the shared worker pool across every stage, per-stage progress is printed
// as stages complete, and Ctrl-C (SIGINT/SIGTERM) cancels the run cleanly
// mid-stage. With -v a per-stage timing/count table is printed at the end.
//
// With -snapshot, the synthesized mappings are persisted as a binary
// snapshot that cmd/serve loads to answer queries without re-running the
// pipeline — the index-once/serve-many split. The file is format v2, the
// page-aligned, mmap-able layout cmd/serve activates in O(1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"text/tabwriter"

	"mapsynth/internal/compat"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/corpusio"
	"mapsynth/internal/curation"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// main delegates to run so deferred cleanup (CPU profile flush, file
// closes) executes before the process exits with run's status code.
func main() {
	os.Exit(run())
}

func run() int {
	profile := flag.String("profile", "web", "corpus profile: web or enterprise")
	seed := flag.Int64("seed", 42, "corpus generation seed")
	top := flag.Int("top", 20, "number of top mappings to print")
	minDomains := flag.Int("min-domains", 2, "curation filter: min contributing domains")
	workers := flag.Int("workers", 0, "worker pool size for all pipeline stages; 0 = GOMAXPROCS")
	verbose := flag.Bool("v", false, "print the per-stage timing/count table after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the pipeline run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	exportTSV := flag.String("o", "", "export synthesized mappings to this TSV file")
	report := flag.String("report", "", "write a curation report (TSV) to this file")
	snapPath := flag.String("snapshot", "", "write a binary snapshot for cmd/serve to this file")
	corpusFile := flag.String("corpus", "", "read the corpus from this JSON file (written by cmd/corpusgen) instead of generating; -profile/-seed are then ignored")
	flag.Parse()

	var tables []*table.Table
	if *corpusFile != "" {
		f, err := os.Open(*corpusFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "synthesize: %v\n", err)
			return 2
		}
		tables, err = corpusio.ReadTablesJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "synthesize: %v\n", err)
			return 2
		}
		fmt.Printf("corpus: %d tables (from %s)\n", len(tables), *corpusFile)
	} else {
		var corpus *corpusgen.Corpus
		switch *profile {
		case "web":
			corpus = corpusgen.GenerateWeb(corpusgen.Options{Seed: *seed})
		case "enterprise":
			corpus = corpusgen.GenerateEnterprise(corpusgen.Options{Seed: *seed})
		default:
			fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
			return 2
		}
		tables = corpus.Tables
		fmt.Printf("corpus: %d tables (%s profile, seed %d)\n", len(tables), *profile, *seed)
	}

	cfg := pipeline.DefaultConfig()
	cfg.MinDomains = *minDomains
	cfg.Workers = *workers

	// Ctrl-C / SIGTERM cancels the pipeline mid-stage; the engine drains
	// its workers and returns context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote CPU profile to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		// Deferred so the profile reflects what the run left live (indexes,
		// mappings), not transient pipeline allocations; runtime.GC first so
		// freed-but-uncollected garbage does not inflate it.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
			fmt.Printf("wrote heap profile to %s\n", *memprofile)
		}()
	}

	eng := pipeline.New(cfg)
	eng.SetInstrumentation(pipeline.Instrumentation{
		OnStageEnd: func(st pipeline.StageStats) {
			fmt.Printf("stage %-9s %6d items -> %6d out  %10v  (peak %d workers)\n",
				st.Name, st.Items, st.Produced, st.Duration.Round(1e5), st.PeakWorkers)
		},
	})
	res, err := eng.Run(ctx, tables)
	// Restore default signal handling for the output phase: once the
	// pipeline is done, Ctrl-C should kill the process normally instead of
	// feeding an already-consumed context.
	stop()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "synthesize: cancelled, bye")
			return 130
		}
		fmt.Fprintf(os.Stderr, "synthesize: %v\n", err)
		return 1
	}

	s := res.ExtractStats
	fmt.Printf("extraction: %d candidates from %d raw column pairs (%.1f%% filtered)\n",
		s.Candidates, s.PairsRaw, s.FilterRate()*100)
	fmt.Printf("synthesis: %d edges, %d components, %d partitions, %d tables removed by conflict resolution\n",
		res.Edges, res.Components, res.Partitions, res.TablesRemoved)
	fmt.Printf("pipeline: total=%v over %d-worker pool\n",
		res.Timings.Total.Round(1e6), eng.Pool().Workers())
	fmt.Printf("\ntop %d synthesized mappings by popularity:\n", *top)
	for i, m := range res.Mappings {
		if i >= *top {
			break
		}
		example := ""
		if len(m.Pairs) > 0 {
			example = fmt.Sprintf("e.g. (%s -> %s)", m.Pairs[0].L, m.Pairs[0].R)
		}
		ds := m.Directions()
		kind := "N:1"
		if ds.RightToLeft > 0.95 {
			kind = "1:1"
		}
		fmt.Printf("  #%02d %4d pairs %3d tables %3d domains %s %s\n",
			i+1, m.Size(), m.NumTables(), m.NumDomains(), kind, example)
	}

	if *verbose {
		fmt.Println("\nper-stage breakdown:")
		tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "  stage\titems\tproduced\tduration\tpeak workers")
		for _, st := range res.Stages {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%v\t%d\n",
				st.Name, st.Items, st.Produced, st.Duration.Round(1e5), st.PeakWorkers)
		}
		fmt.Fprintf(tw, "  total\t\t%d mappings\t%v\t\n",
			len(res.Mappings), res.Timings.Total.Round(1e5))
		tw.Flush()
		// What blocking's stop-word cap left uncounted; zeros mean nothing.
		bs := res.Blocking
		fmt.Printf("\nblocking cap (posting lists > %d skipped):\n", compat.MaxPostingLen)
		tw = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "  pass\tkeys skipped\tpair increments forgone")
		fmt.Fprintf(tw, "  pair keys (w+)\t%d\t%d\n", bs.Pair.KeysSkipped, bs.Pair.IncrementsSkipped)
		fmt.Fprintf(tw, "  left keys (w-)\t%d\t%d\n", bs.Left.KeysSkipped, bs.Left.IncrementsSkipped)
		tw.Flush()
	}

	if *exportTSV != "" {
		f, err := os.Create(*exportTSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := corpusio.WriteMappingsTSV(f, res.Mappings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Close()
		fmt.Printf("\nexported %d mappings to %s\n", len(res.Mappings), *exportTSV)
	}
	if *snapPath != "" {
		if err := snapshot.WriteFileV2(*snapPath, res.Mappings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		info, _ := os.Stat(*snapPath)
		size := int64(0)
		if info != nil {
			size = info.Size()
		}
		fmt.Printf("wrote v2 snapshot of %d mappings to %s (%d bytes)\n",
			len(res.Mappings), *snapPath, size)
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := curation.Report(f, res.Mappings, *top); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Close()
		fmt.Printf("wrote curation report to %s\n", *report)
	}
	return 0
}
