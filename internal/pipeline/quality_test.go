package pipeline

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mapsynth/internal/benchmark"
	"mapsynth/internal/corpusgen"
)

// testdata/relation_quality.txt pins, per corpus, the paper's §5.1 score of
// every benchmark relation under DefaultConfig: the precision, recall and F
// of the best synthesized mapping (benchmark.EvaluateAll), plus the mean row
// benchmark.Average reports (its F is bench/'s quality_f1 on the bench
// corpus). engine_digests.txt says that output changed; this table says
// which relations gained or lost. A change that means to alter synthesis
// output regenerates it with
//
//	go test ./internal/pipeline -run TestRelationQualityPinned -update-quality
//
// and names in its description every relation whose row moved.
var updateQuality = flag.Bool("update-quality", false, "rewrite testdata/relation_quality.txt from the current engine")

const qualityFile = "testdata/relation_quality.txt"

type qualityCase struct {
	name   string
	corpus func() *corpusgen.Corpus
	long   bool // skipped under -short
}

func qualityCases() []qualityCase {
	return []qualityCase{
		{name: "web-seed42-scale2", corpus: webCorpus(42, 2), long: true},
		{name: "web-seed42", corpus: webCorpus(42, 1)},
		{name: "enterprise-seed42", corpus: func() *corpusgen.Corpus {
			return corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 42})
		}},
	}
}

// qualityRows synthesizes the case's corpus and formats one line per
// benchmark relation, then the mean.
func qualityRows(t *testing.T, qc qualityCase) []string {
	t.Helper()
	corpus := qc.corpus()
	res, err := New(DefaultConfig()).Run(context.Background(), corpus.Tables)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]benchmark.PairSet, len(res.Mappings))
	for i, m := range res.Mappings {
		outs[i] = benchmark.PairSetFromTablePairs(m.Pairs)
	}
	cases := benchmark.CasesFromRelations(corpus.Benchmark)
	scores := benchmark.EvaluateAll(cases, outs)
	row := func(name string, p, r, f float64) string {
		return fmt.Sprintf("%-18s %-28s %.4f %.4f %.4f", qc.name, name, p, r, f)
	}
	lines := make([]string, 0, len(cases)+1)
	for i, c := range cases {
		lines = append(lines, row(c.Name, scores[i].Precision, scores[i].Recall, scores[i].F))
	}
	avg := benchmark.Average(scores)
	return append(lines, row("(mean)", avg.Precision, avg.Recall, avg.F))
}

// TestRelationQualityPinned recomputes every corpus's rows and requires them
// to equal the committed ones. Under -short the scale-2 corpus is skipped.
func TestRelationQualityPinned(t *testing.T) {
	cases := qualityCases()
	if *updateQuality {
		var sb strings.Builder
		sb.WriteString("# corpus           relation                     P      R      F — see quality_test.go\n")
		for _, qc := range cases {
			for _, l := range qualityRows(t, qc) {
				sb.WriteString(l + "\n")
			}
		}
		if err := os.WriteFile(qualityFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(qualityFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = append(want[name], line)
	}
	for _, qc := range cases {
		t.Run(qc.name, func(t *testing.T) {
			if qc.long && testing.Short() {
				t.Skip("scale-2 corpus")
			}
			got := qualityRows(t, qc)
			if len(got) != len(want[qc.name]) {
				t.Fatalf("%d rows, pinned %d", len(got), len(want[qc.name]))
			}
			for i := range got {
				if got[i] != want[qc.name][i] {
					t.Errorf("got    %s\npinned %s", got[i], want[qc.name][i])
				}
			}
		})
	}
}
