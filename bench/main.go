// Command bench is the benchmark of the whole system: four workloads run
// against the real programs (pipeline.Engine in a child process, cmd/serve as
// a subprocess driven through pkg/client), eleven end-to-end metrics a user
// would see, and a separate traced pass that times calls into each layer's
// public functions for a per-layer ledger. README.md is the glossary.
//
//	bash bench/run.sh -seed 42                  every workload, then the ledger
//	bash bench/run.sh -seed 42 -repeat 3        ... three times, with spreads
//	bash bench/run.sh -workload query-point     one row
//	bash bench/run.sh --workload query-point --seed 7 --seconds 15 --trace 0
//
// The last form is how BENCHMARK.json's driver calls it; the last line of
// standard output is then one JSON object with the run's metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 42, "seed of everything the benchmark generates: key streams, hot sets, query pools, operation order")
	workload := flag.String("workload", "", "run one workload (build-web, query-point, query-mixed, ingest-live); empty runs all four")
	seconds := flag.Int("seconds", 0, "measured seconds per run; 0 selects the default (15, or 1.5 with -quick)")
	trace := flag.Int("trace", -1, "0: the untraced end-to-end pass; 1: the traced per-layer pass; -1: both, untraced first")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and print each metric's min/median/max and range against its bound")
	quick := flag.Bool("quick", false, "a smoke pass: scale 0.25, one set-up, 1.5 s windows; its numbers mean nothing")
	child := flag.String("child", "", "internal: run as a child process (build)")
	childScale := flag.Float64("child-scale", 2, "internal: corpus scale of the build child")
	childWindow := flag.Duration("child-window", 0, "internal: timed window of the build child; 0 sets up and exits")
	childSnap := flag.String("child-snap", "", "internal: snapshot path of the build child")
	flag.Parse()

	if *child != "" {
		if err := buildChild(*childScale, *childWindow, *childSnap); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	if *workload != "" && !isWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace < -1 || *trace > 1 || *repeat < 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, *seed, newSizing(*quick, *seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	st := newStamp(e.root)
	fmt.Printf("bench: seed %d · %d s windows · nproc %d · GOMAXPROCS %d · %s · kernel %s · commit %s · cmd/serve built in %.2f s\n",
		*seed, int(e.sz.seconds.Seconds()), st.NProc, st.GOMAXPROCS, st.Go, st.Kernel, st.Commit, e.buildS)

	var sets [][]*report
	failed := false
	for i := 0; i < *repeat; i++ {
		reports, err := e.runSet(ctx, names, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, r := range reports {
			failed = failed || r.Failed > 0
		}
		sets = append(sets, reports)
	}
	var spreads []spreadRow
	if *repeat > 1 {
		spreads = printSpreads(sets)
	}

	// The last line: the driver's object for a single pass of one workload,
	// the full summary otherwise. No gain is claimed by a benchmark.
	var last []byte
	if *workload != "" && *trace >= 0 && *repeat == 1 {
		last, err = sets[0][0].driverLine()
	} else {
		last, err = json.Marshal(struct {
			Stamp   stamp       `json:"stamp"`
			Seed    int64       `json:"seed"`
			Seconds float64     `json:"seconds"`
			Runs    [][]*report `json:"runs"`
			Spreads []spreadRow `json:"spreads,omitempty"`
			Claim   *string     `json:"claim"`
		}{Stamp: st, Seed: *seed, Seconds: e.sz.seconds.Seconds(), Runs: sets, Spreads: spreads})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	if failed {
		return 1
	}
	return 0
}

// runSet makes the passes asked for: for each workload its untraced pass,
// then (once, or once per workload when a single workload is named by the
// driver) the traced ledger.
func (e *env) runSet(ctx context.Context, names []string, trace int) ([]*report, error) {
	var reports []*report
	emit := func(r *report, err error) error {
		if err != nil {
			return err
		}
		if err := r.finish(); err != nil {
			return err
		}
		r.print(os.Stdout)
		reports = append(reports, r)
		return nil
	}
	if trace != 1 {
		for _, name := range names {
			t0 := time.Now()
			var r *report
			var err error
			switch name {
			case "build-web":
				r, err = e.runBuildWeb(ctx)
			case "query-point":
				r, err = e.runQueryPoint(ctx)
			case "query-mixed":
				r, err = e.runQueryMixed(ctx)
			case "ingest-live":
				r, err = e.runIngestLive(ctx)
			}
			if r != nil {
				r.notef("pass took %.1f s", time.Since(t0).Seconds())
			}
			if err := emit(r, err); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	if trace != 0 {
		// The ledger is of the system, not of a workload; it is labelled
		// with the workload only when the driver asks for it under one.
		label := "system"
		if len(names) == 1 {
			label = names[0]
		}
		t0 := time.Now()
		r, err := e.runLedger(ctx, label)
		if r != nil {
			r.notef("pass took %.1f s", time.Since(t0).Seconds())
		}
		if err := emit(r, err); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	return reports, nil
}

// printSpreads prints, for every metric of every pass, its extremes across
// the repetitions and whether that range resolves the metric's bound.
func printSpreads(sets [][]*report) []spreadRow {
	var rows []spreadRow
	fmt.Printf("== spread over %d repetitions: min / median / max, range = (max-min)/median\n", len(sets))
	for i, first := range sets[0] {
		for _, d := range first.defs() {
			values := make([]float64, len(sets))
			for k := range sets {
				values[k] = sets[k][i].Values[d.Name]
			}
			row := spreadOf(first.Workload, d, values)
			rows = append(rows, row)
			verdict := ""
			switch {
			case row.Unresolved:
				verdict = fmt.Sprintf("  UNRESOLVED: range exceeds the bound %.3f", d.Bound)
			case d.Bound > 0:
				verdict = fmt.Sprintf("  within the bound %.3f", d.Bound)
			}
			fmt.Printf("  %-12s %-32s %14.4f %14.4f %14.4f %-6s range %.4f%s\n",
				row.Workload, row.Metric, row.Min, row.Median, row.Max, row.Unit, row.Range, verdict)
		}
	}
	return rows
}
