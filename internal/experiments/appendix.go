package experiments

import (
	"fmt"
	"io"

	"mapsynth/internal/benchmark"
	"mapsynth/internal/expansion"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/refdata"
	"mapsynth/internal/table"
)

// UsefulnessShares summarizes the Appendix-J classification of top clusters.
type UsefulnessShares struct {
	Static, Temporal, Meaningless float64
	Inspected                     int
}

// AppendixJ reproduces the Appendix-J usefulness analysis (and the
// qualitative Figures 12/13): classify the top clusters by popularity into
// meaningful-static, meaningful-temporal and meaningless, by matching each
// cluster against the known corpus relations. The paper reports 49.6%
// static, 37.8% temporal and 12.6% meaningless over its top 500; the exact
// shares depend on corpus composition, but meaningful mappings should
// dominate.
func AppendixJ(w io.Writer, env *Env, topN int) UsefulnessShares {
	_, res := env.RunSynthesis(pipeline.DefaultConfig())

	// Truth sets for every relation present in the corpus, with kinds.
	type rel struct {
		truth benchmark.PairSet
		kind  refdata.Kind
		name  string
	}
	var rels []rel
	for _, r := range env.Corpus.AllRelations() {
		gt := r.GroundTruthPairs()
		rels = append(rels, rel{
			truth: benchmark.NewPairSet(gt),
			kind:  r.Kind,
			name:  r.Name,
		})
		// The reverse direction of a true mapping is an equally meaningful
		// synthesized relation (candidates are extracted in both orders).
		rev := make([][2]string, len(gt))
		for i, p := range gt {
			rev[i] = [2]string{p[1], p[0]}
		}
		rels = append(rels, rel{
			truth: benchmark.NewPairSet(rev),
			kind:  r.Kind,
			name:  r.Name + " (reversed)",
		})
	}

	var static, temporal, meaningless int
	inspected := 0
	fmt.Fprintln(w, "== Appendix J (and Figures 12/13): usefulness of top mappings ==")
	for _, m := range res.Mappings {
		if inspected >= topN {
			break
		}
		if m.Size() < 4 {
			continue
		}
		inspected++
		set := benchmark.PairSetFromTablePairs(m.Pairs)
		// Classify by containment: a cluster is an instance of the relation
		// whose ground truth covers the largest share of its pairs. (F would
		// punish small clean fragments of large relations.)
		bestP, bestKind, bestName := 0.0, refdata.Meaningless, "(unmatched)"
		for _, r := range rels {
			s := benchmark.ScoreSet(set, r.truth)
			if s.Precision > bestP {
				bestP, bestKind, bestName = s.Precision, r.kind, r.name
			}
		}
		if bestP < 0.5 {
			meaningless++
			bestName = "(unmatched)"
		} else {
			switch bestKind {
			case refdata.Temporal:
				temporal++
			case refdata.Meaningless:
				meaningless++
			default:
				static++
			}
		}
		if inspected <= 12 {
			fmt.Fprintf(w, "  top-%02d: %3d pairs %2d domains -> %s\n",
				inspected, m.Size(), m.NumDomains(), bestName)
		}
	}
	shares := UsefulnessShares{Inspected: inspected}
	if inspected > 0 {
		shares.Static = float64(static) / float64(inspected)
		shares.Temporal = float64(temporal) / float64(inspected)
		shares.Meaningless = float64(meaningless) / float64(inspected)
	}
	fmt.Fprintf(w, "  top %d clusters: static=%.1f%% temporal=%.1f%% meaningless=%.1f%% (paper: 49.6/37.8/12.6)\n",
		inspected, shares.Static*100, shares.Temporal*100, shares.Meaningless*100)
	return shares
}

// ExpansionResult compares a case's score before and after table expansion.
type ExpansionResult struct {
	Case   string
	Before benchmark.Score
	After  benchmark.Score
}

// AppendixI reproduces the table-expansion experiment: robust synthesized
// cores are grown with trusted-source instances (a simulated data.gov feed),
// which helps large or rare relations whose tail has little web presence.
func AppendixI(w io.Writer, env *Env) []ExpansionResult {
	_, res := env.RunSynthesis(pipeline.DefaultConfig())
	outputs := MappingOutputs(res)

	// Trusted feeds: the full airport-IATA roster and the full CAS list.
	feeds := map[string]*expansion.TrustedSource{
		"airport-iata": {Name: "data.gov/airports", Pairs: toTablePairs(refdata.AirportExpansionPairs())},
	}
	for _, r := range env.Corpus.Benchmark {
		if r.Name == "substance-cas" {
			var ps []table.Pair
			for _, p := range r.Pairs {
				ps = append(ps, table.Pair{L: p.Left.Canonical, R: p.Right})
			}
			feeds["substance-cas"] = &expansion.TrustedSource{Name: "data.gov/cas", Pairs: ps}
		}
	}

	var results []ExpansionResult
	fmt.Fprintln(w, "== Appendix I: table expansion from trusted sources ==")
	for _, c := range env.Cases {
		feed, ok := feeds[c.Name]
		if !ok {
			continue
		}
		before, idx := benchmark.BestScore(outputs, c.Truth)
		if idx < 0 {
			continue
		}
		expanded, info := expansion.Expand(res.Mappings[idx], []*expansion.TrustedSource{feed}, expansion.DefaultOptions())
		after := benchmark.ScoreSet(benchmark.PairSetFromTablePairs(expanded), c.Truth)
		results = append(results, ExpansionResult{Case: c.Name, Before: before, After: after})
		fmt.Fprintf(w, "  %-14s F %.3f -> %.3f (recall %.3f -> %.3f, +%d pairs from %v)\n",
			c.Name, before.F, after.F, before.Recall, after.Recall, info.PairsAdded, info.SourcesMerged)
	}
	return results
}

func toTablePairs(ps [][2]string) []table.Pair {
	out := make([]table.Pair, len(ps))
	for i, p := range ps {
		out[i] = table.Pair{L: p[0], R: p[1]}
	}
	return out
}
