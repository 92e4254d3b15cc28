package extract

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/fd"
	"mapsynth/internal/pool"
	"mapsynth/internal/stats"
	"mapsynth/internal/table"
)

// buildCorpus assembles a small corpus exercising all extraction filters:
// repeated clean mapping tables, a non-functional pair, a numeric pair, a
// row-number column and an incoherent column.
func buildCorpus() []*table.Table {
	countries := []string{"Japan", "Canada", "Peru", "Kenya", "Norway"}
	codes := []string{"JPN", "CAN", "PER", "KEN", "NOR"}
	animals := []string{"cat", "dog", "bird", "fish", "lynx"}
	var tables []*table.Table
	id := 0
	add := func(cols ...table.Column) *table.Table {
		t := &table.Table{ID: id, Domain: "d", Columns: cols}
		id++
		tables = append(tables, t)
		return t
	}
	// Several clean country tables so values co-occur.
	for i := 0; i < 5; i++ {
		add(
			table.Column{Name: "country", Values: countries},
			table.Column{Name: "code", Values: codes},
		)
	}
	for i := 0; i < 5; i++ {
		add(table.Column{Name: "animal", Values: animals})
	}
	// Non-functional pair: duplicate lefts with different rights.
	add(
		table.Column{Name: "home", Values: []string{"Japan", "Japan", "Canada", "Peru", "Kenya"}},
		table.Column{Name: "away", Values: []string{"Canada", "Peru", "Japan", "Kenya", "Norway"}},
	)
	// Numeric-on-both-sides pair.
	add(
		table.Column{Name: "x", Values: []string{"1.5", "2.5", "3.5", "4.5"}},
		table.Column{Name: "y", Values: []string{"10", "20", "30", "40"}},
	)
	// Row-number column against a real column.
	add(
		table.Column{Name: "rank", Values: []string{"1", "2", "3", "4", "5"}},
		table.Column{Name: "country", Values: countries},
	)
	// Incoherent column mixing concepts that never co-occur elsewhere.
	add(
		table.Column{Name: "country", Values: countries},
		table.Column{Name: "notes", Values: []string{"Japan", "dog", "JPN", "fish", "cat"}},
	)
	return tables
}

func TestExtractionFilters(t *testing.T) {
	tables := buildCorpus()
	idx := stats.BuildIndex(tables)
	ext := New(idx, DefaultOptions())
	bins, st := ext.ExtractAll(tables)

	if st.Tables != len(tables) {
		t.Errorf("Tables = %d", st.Tables)
	}
	if st.PairsNumeric == 0 {
		t.Error("numeric filter never fired")
	}
	if st.PairsFDRejected == 0 {
		t.Error("FD filter never fired")
	}
	// Candidates must include both directions of the clean country tables.
	fwd, rev := 0, 0
	for _, b := range bins {
		if b.LeftName == "country" && b.RightName == "code" {
			fwd++
		}
		if b.LeftName == "code" && b.RightName == "country" {
			rev++
		}
	}
	if fwd != 5 || rev != 5 {
		t.Errorf("country candidates: fwd=%d rev=%d, want 5/5", fwd, rev)
	}
	// No candidate may come from the home/away schedule table.
	for _, b := range bins {
		if b.LeftName == "home" {
			t.Errorf("non-functional pair survived: %v", b)
		}
	}
	if st.FilterRate() <= 0 {
		t.Errorf("FilterRate = %v", st.FilterRate())
	}
}

func TestRowNumberColumnDetection(t *testing.T) {
	mk := func(vals []string) *table.BinaryTable {
		rs := make([]string, len(vals))
		for i := range rs {
			rs[i] = fmt.Sprintf("v%d", i)
		}
		return table.NewBinaryTable(0, 0, "d", "l", "r", vals, rs)
	}
	if !rowNumberColumn(mk([]string{"1", "2", "3", "4"})) {
		t.Error("1..4 should be detected as row numbers")
	}
	if rowNumberColumn(mk([]string{"2", "3", "4", "5"})) {
		t.Error("2..5 does not start at 1")
	}
	if rowNumberColumn(mk([]string{"1", "2", "4", "5"})) {
		t.Error("gapped sequence is not a row counter")
	}
	if rowNumberColumn(mk([]string{"200", "301", "404", "500"})) {
		t.Error("status codes are not row numbers")
	}
	if rowNumberColumn(mk([]string{"1", "2", "x", "4"})) {
		t.Error("non-numeric value disqualifies")
	}
}

func TestIsNumeric(t *testing.T) {
	cases := map[string]bool{
		"123":   true,
		"1.5":   true,
		"1 234": true,
		"12a":   false,
		"":      false,
		"USA":   false,
		"3rd":   false,
		"-42":   true, // minus normalizes away, digits remain
	}
	for in, want := range cases {
		if got := isNumeric(in); got != want {
			t.Errorf("isNumeric(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestMinPairsFilter(t *testing.T) {
	tables := []*table.Table{{
		ID: 0, Domain: "d",
		Columns: []table.Column{
			{Name: "a", Values: []string{"x", "y"}},
			{Name: "b", Values: []string{"1", "2"}},
		},
	}}
	idx := stats.BuildIndex(tables)
	opt := DefaultOptions()
	opt.MinPairs = 3
	bins, st := New(idx, opt).ExtractAll(tables)
	if len(bins) != 0 || st.PairsTooSmall != 2 {
		t.Errorf("bins=%d tooSmall=%d", len(bins), st.PairsTooSmall)
	}
}

// extractStrings is extractTable as it was before cells were interned: each
// filter normalizes the values it reads. It is the reference for the id
// path.
func extractStrings(idx *stats.CooccurrenceIndex, opt Options, t *table.Table) ([]*table.BinaryTable, Stats) {
	st := Stats{Tables: 1, ColumnsTotal: len(t.Columns), PairsRaw: len(t.Columns) * (len(t.Columns) - 1)}
	var kept []int
	for ci := range t.Columns {
		if idx.ColumnCoherence(t.Columns[ci].Values) < opt.CoherenceThreshold {
			st.ColumnsDropped++
			continue
		}
		kept = append(kept, ci)
	}
	var out []*table.BinaryTable
	for _, i := range kept {
		for _, j := range kept {
			if i == j {
				continue
			}
			st.PairsTotal++
			ci, cj := &t.Columns[i], &t.Columns[j]
			res := fd.Check(ci.Values, cj.Values)
			if !res.Holds(opt.ThetaFD) || res.DistinctLeft >= 3 && res.DistinctRight == 1 {
				st.PairsFDRejected++
				continue
			}
			b := table.NewBinaryTable(len(out), t.ID, t.Domain, ci.Name, cj.Name, ci.Values, cj.Values)
			if b.Size() < opt.MinPairs {
				st.PairsTooSmall++
				continue
			}
			numL, numR := 0, 0
			for _, p := range b.Pairs {
				if isNumeric(p.L) {
					numL++
				}
				if isNumeric(p.R) {
					numR++
				}
			}
			n := len(b.Pairs)
			if opt.SkipNumericColumns && (numL*10 >= n*9 && numR*10 >= n*9 || rowNumberColumn(b)) {
				st.PairsNumeric++
				continue
			}
			out = append(out, b)
		}
	}
	st.Candidates = len(out)
	return out, st
}

// randomTables builds a corpus exercising every extraction filter: raw
// variants of one normalized value, cells that normalize to empty,
// duplicate rows, numeric, row-number and mixed-concept columns, non-ASCII
// values and columns of unequal length.
func randomTables(rng *rand.Rand, n int) []*table.Table {
	vocabs := [][]string{
		{"Japan", "japan", "JAPAN[1]", "Canada", "Peru", "Kenya", "Norway", "Côte d'Ivoire", "CÔTE D IVOIRE", "日本", "", " ", "--"},
		{"JPN", "jpn", "CAN", "PER", "KEN", "NOR", "CIV", "東京", ""},
		{"1", "2", "3", "4", "5", "6", "01", "2.5", "10", "-3"},
		{"cat", "dog", "bird", "fish", "lynx", "Cat", "Ärger"},
	}
	var tables []*table.Table
	for ti := 0; ti < n; ti++ {
		rows := 1 + rng.Intn(14)
		t := &table.Table{ID: ti, Domain: "d"}
		for c := 0; c < 1+rng.Intn(5); c++ {
			vocab := vocabs[rng.Intn(len(vocabs))]
			vals := make([]string, rows)
			if rng.Intn(8) == 0 {
				vals = vals[:rng.Intn(rows+1)] // a short column
			}
			counter := rng.Intn(6) == 0 // a row-number column
			mixed := rng.Intn(6) == 0   // a column of mixed concepts
			for i := range vals {
				if counter {
					vals[i] = fmt.Sprint(i + 1)
				} else if mixed {
					v := vocabs[i%len(vocabs)]
					vals[i] = v[rng.Intn(len(v))]
				} else {
					vals[i] = vocab[rng.Intn(len(vocab))]
				}
			}
			t.Columns = append(t.Columns, table.Column{Name: fmt.Sprint("c", c), Values: vals})
		}
		tables = append(tables, t)
	}
	return tables
}

// TestExtractTableMatchesStringPath runs extraction on interned cells
// against the string reference on random tables (randomTables). Candidates (pairs, order, names) and statistics must be identical, on one
// Extractor reused across all tables as a worker reuses its scratch.
func TestExtractTableMatchesStringPath(t *testing.T) {
	tables := randomTables(rand.New(rand.NewSource(46)), 400)
	idx := stats.BuildIndex(tables)
	opt := DefaultOptions()
	opt.MinPairs = 2
	ext := New(idx, opt)
	var total Stats
	for _, tb := range tables {
		got, gst := ext.ExtractTable(tb)
		want, wst := extractStrings(idx, opt, tb)
		if gst != wst {
			t.Fatalf("table %d: stats %+v, string path %+v", tb.ID, gst, wst)
		}
		total.Add(wst)
		total.Candidates += wst.Candidates
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.TableID != w.TableID || g.Domain != w.Domain || g.LeftName != w.LeftName ||
				g.RightName != w.RightName || !slices.Equal(g.Pairs, w.Pairs) {
				t.Fatalf("table %d candidate %d: %+v, string path %+v", tb.ID, i, g, w)
			}
		}
	}
	if total.ColumnsDropped == 0 || total.PairsFDRejected == 0 || total.PairsTooSmall == 0 ||
		total.PairsNumeric == 0 || total.Candidates < 50 {
		t.Fatalf("totals %+v: the corpus does not exercise every filter", total)
	}
}

// TestExtractAllParallelMatchesSequential: workers extracting tables at
// once, each on pooled scratch, give what one worker gives.
func TestExtractAllParallelMatchesSequential(t *testing.T) {
	tables := randomTables(rand.New(rand.NewSource(7)), 300)
	ext := New(stats.BuildIndex(tables), DefaultOptions())
	want, wst := ext.ExtractAll(tables)
	got, gst, err := ext.ExtractAllParallel(context.Background(), tables, pool.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if gst != wst || len(got) != len(want) {
		t.Fatalf("parallel: %d candidates, %+v; sequential: %d, %+v", len(got), gst, len(want), wst)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].TableID != want[i].TableID || !slices.Equal(got[i].Pairs, want[i].Pairs) {
			t.Fatalf("candidate %d: parallel %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

// TestViewHandover: every candidate ExtractAllParallel returns carries the
// normalized view extraction built from its interned ids, and that view
// equals the one Norm computes from scratch on a fresh copy of the pairs.
// SortPairs still drops the view, so Norm rebuilds it for the new order.
func TestViewHandover(t *testing.T) {
	for name, c := range map[string]*corpusgen.Corpus{
		"web 42":        corpusgen.GenerateWeb(corpusgen.Options{Seed: 42}),
		"enterprise 42": corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 42}),
	} {
		bins, _, err := New(stats.BuildIndex(c.Tables), DefaultOptions()).ExtractAllParallel(context.Background(), c.Tables, pool.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(bins) == 0 {
			t.Fatalf("%s: no candidates", name)
		}
		for _, b := range bins {
			fresh := &table.BinaryTable{Pairs: slices.Clone(b.Pairs)}
			if got, want := b.Norm(), fresh.Norm(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: candidate %v: handed-over view %v, Norm %v", name, b, got.Pairs, want.Pairs)
			}
		}
		b := bins[0]
		handed := b.Norm()
		b.SortPairs()
		fresh := &table.BinaryTable{Pairs: slices.Clone(b.Pairs)}
		if got := b.Norm(); got == handed || !reflect.DeepEqual(got, fresh.Norm()) {
			t.Fatalf("%s: after SortPairs, Norm still serves the handed-over view", name)
		}
	}
}
