// Command benchmark regenerates the paper's evaluation: every table and
// figure of Section 5 and the appendices, printed as text tables.
//
// Usage:
//
//	benchmark [-experiment all|figure7|figure8|figure9|figure10|figure11|
//	           figure14|figure15|sensitivity|appendixJ|appendixI|extraction]
//	          [-seed N]
//	benchmark -suite [-out BENCH_N.json] [-seed N] [-scale F] [-duration D]
//	          [-compare BENCH_OLD.json] [-tolerance F]
//
// With -suite it instead runs the serving performance suite (synthesis wall
// time per stage, snapshot write time, cold activation cost, lookup ns/op
// and allocs/op, and a closed-loop loadgen throughput/percentile run) and prints the result as JSON — the repeatable
// baseline the BENCH_*.json trajectory is built from. With -compare the new
// result is gated against an older report: any lower-is-better metric
// present in both that grew past -tolerance (a ratio; 0.5 allows 1.5×)
// fails the run with exit code 1, which is what the CI regression job keys
// off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mapsynth/internal/benchmark"
	"mapsynth/internal/experiments"
)

// runSuite executes the serving suite, writes its JSON to stdout and, when
// -out is set, to a file. When compare names an older report, the new result
// is gated against it and regressions fail the run.
func runSuite(seed int64, scale float64, duration time.Duration, out, compare string, tolerance float64) int {
	res, err := benchmark.RunSuite(context.Background(), benchmark.SuiteOptions{
		Seed:     seed,
		Scale:    scale,
		Duration: duration,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	}
	if compare != "" {
		old, err := benchmark.ReadResult(compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		regs := benchmark.Compare(old, res, tolerance)
		if len(regs) == 0 {
			fmt.Fprintf(os.Stderr, "no regressions vs %s (tolerance %.2f)\n", compare, tolerance)
			return 0
		}
		fmt.Fprintf(os.Stderr, "REGRESSIONS vs %s (tolerance %.2f):\n", compare, tolerance)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %-36s %.4g -> %.4g (%.2fx)\n", r.Metric, r.Old, r.New, r.Ratio)
		}
		return 1
	}
	return 0
}

func main() {
	exp := flag.String("experiment", "all", "which experiment to run")
	seed := flag.Int64("seed", experiments.DefaultSeed, "corpus seed")
	suite := flag.Bool("suite", false, "run the serving performance suite instead of the paper experiments")
	scale := flag.Float64("scale", 1.0, "corpus scale for -suite; 1.0 is the full seed corpus")
	duration := flag.Duration("duration", 3*time.Second, "loadgen serving phase length for -suite")
	out := flag.String("out", "", "also write the -suite JSON result to this file")
	compare := flag.String("compare", "", "gate the -suite result against this older BENCH_N.json; regressions exit nonzero")
	tolerance := flag.Float64("tolerance", 0.5, "allowed growth ratio for -compare (0.5 allows 1.5x)")
	flag.Parse()

	if *suite {
		os.Exit(runSuite(*seed, *scale, *duration, *out, *compare, *tolerance))
	}

	w := os.Stdout
	needEnv := map[string]bool{
		"all": true, "figure7": true, "figure8": true, "figure14": true,
		"figure15": true, "sensitivity": true, "appendixJ": true,
		"appendixI": true, "extraction": true,
	}
	var env *experiments.Env
	if needEnv[*exp] {
		fmt.Fprintln(w, "generating web corpus and shared artifacts...")
		env = experiments.NewEnv(*seed)
	}

	run := func(name string) {
		switch name {
		case "figure7", "figure8":
			results := experiments.Figure7(w, env, *seed)
			experiments.Figure8(w, results)
		case "figure9":
			experiments.Figure9(w, *seed)
		case "figure10":
			experiments.Figure10(w, *seed)
		case "figure11":
			experiments.Figure11(w, *seed)
		case "figure14":
			results := experiments.Figure7(w, env, *seed)
			experiments.Figure14(w, env, results)
		case "figure15":
			experiments.Figure15(w, env)
		case "sensitivity":
			experiments.Sensitivity(w, env)
		case "appendixJ":
			experiments.AppendixJ(w, env, 200)
		case "appendixI":
			experiments.AppendixI(w, env)
		case "extraction":
			experiments.ExtractionStats(w, env)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *exp == "all" {
		results := experiments.Figure7(w, env, *seed)
		experiments.Figure8(w, results)
		experiments.Figure14(w, env, results)
		experiments.ExtractionStats(w, env)
		experiments.Figure15(w, env)
		experiments.Figure9(w, *seed)
		experiments.Figure10(w, *seed)
		experiments.Figure11(w, *seed)
		experiments.AppendixJ(w, env, 200)
		experiments.AppendixI(w, env)
		experiments.Sensitivity(w, env)
		return
	}
	run(*exp)
}
