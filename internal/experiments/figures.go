package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/pipeline"
)

// Figure7 reproduces the paper's Figure 7: average F-score, precision and
// recall of all 12 methods on the web benchmark. It returns the results in
// the paper's method order and prints one row per method.
func Figure7(w io.Writer, env *Env, seed int64) []*MethodResult {
	results := env.RunAllMethods(seed)
	rows := [][]string{{"method", "avg-F", "avg-P", "avg-R", "found"}}
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.Avg.F),
			fmt.Sprintf("%.3f", r.Avg.Precision),
			fmt.Sprintf("%.3f", r.Avg.Recall),
			fmt.Sprintf("%d/%d", r.Avg.Found, r.Avg.Cases),
		})
	}
	printTable(w, "== Figure 7: average f-score, precision and recall (80 web cases) ==", rows)
	return results
}

// Figure8 reproduces Figure 8: per-method runtime. It reuses Figure-7
// results when provided (the paper measures the same runs).
func Figure8(w io.Writer, results []*MethodResult) {
	rows := [][]string{{"method", "runtime"}}
	for _, r := range results {
		rows = append(rows, []string{r.Name, r.Runtime.Round(time.Millisecond).String()})
	}
	printTable(w, "== Figure 8: runtime per method ==", rows)
}

// ScalePoint is one measurement of the scalability experiment.
type ScalePoint struct {
	Fraction float64
	Tables   int
	Runtime  time.Duration
}

// Figure9 reproduces Figure 9: Synthesis runtime on {20,40,60,80,100}% input
// samples. The paper observes near-linear scaling thanks to edge sparsity.
func Figure9(w io.Writer, seed int64) []ScalePoint {
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	points := make([]ScalePoint, 0, len(fractions))
	for _, f := range fractions {
		corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, SampleFraction: f})
		t0 := time.Now()
		synthesize(pipeline.DefaultConfig(), corpus.Tables)
		points = append(points, ScalePoint{
			Fraction: f,
			Tables:   len(corpus.Tables),
			Runtime:  time.Since(t0),
		})
	}
	rows := [][]string{{"input", "tables", "runtime"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.Fraction*100),
			fmt.Sprintf("%d", p.Tables),
			p.Runtime.Round(time.Millisecond).String(),
		})
	}
	printTable(w, "== Figure 9: scalability (Synthesis runtime vs input fraction) ==", rows)
	return points
}

// Figure10 reproduces Figure 10: Synthesis vs the single-table EntTable
// baseline on the 30-case Enterprise benchmark.
func Figure10(w io.Writer, seed int64) (synth, entTable *MethodResult) {
	env := NewEnterpriseEnv(seed)
	synth, _ = env.RunSynthesis(pipeline.DefaultConfig())
	entTable = env.RunSingleTables("EntTable", "")
	rows := [][]string{
		{"method", "avg-F", "avg-P", "avg-R"},
		{"Synthesis", fmt.Sprintf("%.3f", synth.Avg.F), fmt.Sprintf("%.3f", synth.Avg.Precision), fmt.Sprintf("%.3f", synth.Avg.Recall)},
		{"EntTable", fmt.Sprintf("%.3f", entTable.Avg.F), fmt.Sprintf("%.3f", entTable.Avg.Precision), fmt.Sprintf("%.3f", entTable.Avg.Recall)},
	}
	printTable(w, "== Figure 10: Enterprise benchmark (30 cases) ==", rows)
	return synth, entTable
}

// Figure11 reproduces Figure 11: example synthesized enterprise mappings
// with sample instances, taken from the most popular clusters.
func Figure11(w io.Writer, seed int64) {
	env := NewEnterpriseEnv(seed)
	_, res := env.RunSynthesis(pipeline.DefaultConfig())
	fmt.Fprintln(w, "== Figure 11: example enterprise mappings (top clusters by popularity) ==")
	n := 0
	for _, m := range res.Mappings {
		if m.NumDomains() < 2 || m.Size() < 8 {
			continue
		}
		examples := ""
		for i, p := range m.Pairs {
			if i >= 2 {
				break
			}
			if i > 0 {
				examples += ", "
			}
			examples += fmt.Sprintf("(%s, %s)", p.L, p.R)
		}
		fmt.Fprintf(w, "  %3d pairs  %2d tables  %2d shares  e.g. %s\n",
			m.Size(), m.NumTables(), m.NumDomains(), examples)
		n++
		if n >= 8 {
			break
		}
	}
}

// Figure14 reproduces Figure 14: per-case F-score of every method across the
// 80 web cases, sorted by the F-score of Synthesis (descending). It prints a
// compact matrix: one row per case, one column per method.
func Figure14(w io.Writer, env *Env, results []*MethodResult) {
	type caseRow struct {
		name   string
		synthF float64
	}
	order := make([]caseRow, len(env.Cases))
	var synth *MethodResult
	for _, r := range results {
		if r.Name == "Synthesis" {
			synth = r
			break
		}
	}
	if synth == nil {
		fmt.Fprintln(w, "Figure14: no Synthesis result")
		return
	}
	for i, c := range env.Cases {
		order[i] = caseRow{name: c.Name, synthF: synth.Scores[i].F}
	}
	indexOfCase := make(map[string]int, len(env.Cases))
	for i, c := range env.Cases {
		indexOfCase[c.Name] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].synthF > order[j].synthF })

	header := []string{"case"}
	for _, r := range results {
		header = append(header, shortName(r.Name))
	}
	rows := [][]string{header}
	for _, cr := range order {
		i := indexOfCase[cr.name]
		row := []string{cr.name}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.2f", r.Scores[i].F))
		}
		rows = append(rows, row)
	}
	printTable(w, "== Figure 14: per-case F-score, sorted by Synthesis ==", rows)
}

// shortName compresses method names for the Figure-14 matrix header.
func shortName(name string) string {
	switch name {
	case "Synthesis":
		return "Syn"
	case "SynthesisPos":
		return "SynPos"
	case "WikiTable":
		return "Wiki"
	case "WebTable":
		return "Web"
	case "UnionDomain":
		return "UnDom"
	case "UnionWeb":
		return "UnWeb"
	case "Correlation":
		return "Corr"
	case "SchemaPosCC":
		return "SchPos"
	case "SchemaCC":
		return "SchCC"
	case "WiseIntegrator":
		return "Wise"
	case "Freebase":
		return "FB"
	case "YAGO":
		return "YAGO"
	default:
		return name
	}
}

// ExtractionStats reproduces the Section-3.2 observation that the PMI and FD
// filters prune a large share of raw candidate column pairs (~78% in the
// paper's corpus; the exact rate is corpus-dependent).
func ExtractionStats(w io.Writer, env *Env) {
	s := env.ExtractStats
	fmt.Fprintln(w, "== Extraction statistics (Section 3.2) ==")
	fmt.Fprintf(w, "  tables=%d columns=%d columnsDropped=%d (PMI coherence)\n",
		s.Tables, s.ColumnsTotal, s.ColumnsDropped)
	fmt.Fprintf(w, "  rawPairs=%d afterColumnFilter=%d fdRejected=%d tooSmall=%d numeric=%d\n",
		s.PairsRaw, s.PairsTotal, s.PairsFDRejected, s.PairsTooSmall, s.PairsNumeric)
	fmt.Fprintf(w, "  candidates=%d filterRate=%.1f%% (paper: ~78%%)\n",
		s.Candidates, s.FilterRate()*100)
}

// Figure15Result carries the conflict-resolution comparison of Section 5.6.
type Figure15Result struct {
	With     *MethodResult // greedy resolution (the paper's method)
	Without  *MethodResult // no resolution
	Majority *MethodResult // majority-voting baseline
	Improved int           // cases where resolution raised F
}

// Figure15 reproduces Figure 15 and Section 5.6: per-case F with and without
// conflict resolution, the precision/recall shift, and the comparison with
// majority voting (Appendix K).
func Figure15(w io.Writer, env *Env) Figure15Result {
	withCfg := pipeline.DefaultConfig()
	withRes, _ := env.RunSynthesis(withCfg)

	noCfg := pipeline.DefaultConfig()
	noCfg.Resolution = pipeline.ResolveNone
	noRes, _ := env.RunSynthesis(noCfg)
	noRes.Name = "Synthesis W/O Resolution"

	mvCfg := pipeline.DefaultConfig()
	mvCfg.Resolution = pipeline.ResolveMajority
	mvRes, _ := env.RunSynthesis(mvCfg)
	mvRes.Name = "MajorityVoting"

	improved := 0
	for i := range env.Cases {
		if withRes.Scores[i].F > noRes.Scores[i].F+1e-9 {
			improved++
		}
	}
	fmt.Fprintln(w, "== Figure 15 / Section 5.6: effect of conflict resolution ==")
	rows := [][]string{
		{"variant", "avg-F", "avg-P", "avg-R"},
		{"with resolution", fmt.Sprintf("%.3f", withRes.Avg.F), fmt.Sprintf("%.3f", withRes.Avg.Precision), fmt.Sprintf("%.3f", withRes.Avg.Recall)},
		{"w/o resolution", fmt.Sprintf("%.3f", noRes.Avg.F), fmt.Sprintf("%.3f", noRes.Avg.Precision), fmt.Sprintf("%.3f", noRes.Avg.Recall)},
		{"majority voting", fmt.Sprintf("%.3f", mvRes.Avg.F), fmt.Sprintf("%.3f", mvRes.Avg.Precision), fmt.Sprintf("%.3f", mvRes.Avg.Recall)},
	}
	printTable(w, "", rows)
	fmt.Fprintf(w, "  resolution improved F in %d/%d cases (paper: 48/80)\n",
		improved, len(env.Cases))
	return Figure15Result{With: withRes, Without: noRes, Majority: mvRes, Improved: improved}
}
