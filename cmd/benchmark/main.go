// Command benchmark regenerates the paper's evaluation: every table and
// figure of Section 5 and the appendices, printed as text tables.
//
// Usage:
//
//	benchmark [-experiment all|figure7|figure8|figure9|figure10|figure11|
//	           figure14|figure15|sensitivity|appendixJ|appendixI|extraction]
//	          [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"mapsynth/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run")
	seed := flag.Int64("seed", experiments.DefaultSeed, "corpus seed")
	flag.Parse()

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
