package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// corpusOf builds a corpus of single-column tables, one per value list.
func corpusOf(cols ...[]string) []*table.Table {
	var out []*table.Table
	for i, c := range cols {
		out = append(out, &table.Table{
			ID:      i,
			Columns: []table.Column{{Name: "c", Values: c}},
		})
	}
	return out
}

func TestIndexCounts(t *testing.T) {
	idx := BuildIndex(corpusOf(
		[]string{"USA", "Canada", "Mexico"},
		[]string{"usa", "canada"}, // normalization folds case
		[]string{"Canada", "Japan"},
		[]string{"usa", "usa", "USA"}, // duplicates within a column count once
	))
	if idx.NumColumns() != 4 {
		t.Fatalf("NumColumns = %d, want 4", idx.NumColumns())
	}
	if got := idx.DocFreq("usa"); got != 3 {
		t.Errorf("DocFreq(usa) = %d, want 3", got)
	}
	if got := idx.DocFreq("canada"); got != 3 {
		t.Errorf("DocFreq(canada) = %d, want 3", got)
	}
	if got := idx.CoFreq("usa", "canada"); got != 2 {
		t.Errorf("CoFreq(usa, canada) = %d, want 2", got)
	}
	if got := idx.CoFreq("usa", "japan"); got != 0 {
		t.Errorf("CoFreq(usa, japan) = %d, want 0", got)
	}
	if got := idx.DocFreq("absent"); got != 0 {
		t.Errorf("DocFreq(absent) = %d, want 0", got)
	}
}

func TestCoFreqSymmetric(t *testing.T) {
	idx := BuildIndex(corpusOf(
		[]string{"a", "b", "c"},
		[]string{"a", "b"},
		[]string{"b", "c"},
		[]string{"a", "c"},
	))
	for _, u := range []string{"a", "b", "c"} {
		for _, v := range []string{"a", "b", "c"} {
			if idx.CoFreq(u, v) != idx.CoFreq(v, u) {
				t.Errorf("CoFreq(%s,%s) not symmetric", u, v)
			}
		}
	}
}

func TestPMIExample4(t *testing.T) {
	// Reproduce the paper's Example 4 arithmetic directly: N = 100M,
	// |C(u)| = 1000, |C(v)| = 500, co = 300 => PMI = 4.78 (natural log base
	// gives ln(300e8/(1000*500)) = ln(60000) ≈ 11.0; the paper's 4.78 uses
	// log10: log10(60000) = 4.778). Verify our natural-log PMI against the
	// same ratio.
	n := 100_000_000.0
	pu, pv, puv := 1000/n, 500/n, 300/n
	want := math.Log(puv / (pu * pv))
	if math.Abs(want-math.Log(60000)) > 1e-9 {
		t.Fatalf("example arithmetic wrong: %v", want)
	}
	// And in log10 terms it matches the paper's 4.78.
	if got := math.Log10(60000); math.Abs(got-4.778) > 0.001 {
		t.Fatalf("paper example mismatch: %v", got)
	}
}

func TestNPMIRange(t *testing.T) {
	idx := BuildIndex(corpusOf(
		[]string{"a", "b"},
		[]string{"a", "b"},
		[]string{"a", "c"},
		[]string{"d"},
		[]string{"e", "f"},
	))
	pairs := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"e", "f"}, {"x", "y"}}
	for _, p := range pairs {
		v := idx.NPMI(p[0], p[1])
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Errorf("NPMI(%s,%s) = %v out of [-1, 1]", p[0], p[1], v)
		}
	}
	// Values that never co-occur score -1.
	if got := idx.NPMI("a", "d"); got != -1 {
		t.Errorf("NPMI(a, d) = %v, want -1", got)
	}
	// Frequent co-occurrence beats rare co-occurrence.
	if idx.NPMI("a", "b") <= idx.NPMI("a", "c") {
		t.Errorf("NPMI ordering wrong: ab=%v ac=%v", idx.NPMI("a", "b"), idx.NPMI("a", "c"))
	}
}

func TestColumnCoherenceSeparatesMixedColumns(t *testing.T) {
	// Corpus: country columns co-occur repeatedly; a mixed column blends
	// values that never co-occur elsewhere.
	countries := []string{"usa", "canada", "mexico", "brazil"}
	animals := []string{"cat", "dog", "bird", "fish"}
	var cols [][]string
	for i := 0; i < 6; i++ {
		cols = append(cols, countries, animals)
	}
	mixed := []string{"usa", "dog", "brazil", "bird"}
	cols = append(cols, mixed)
	idx := BuildIndex(corpusOf(cols...))

	coherent := idx.ColumnCoherence(countries)
	incoherent := idx.ColumnCoherence(mixed)
	if coherent <= 0.5 {
		t.Errorf("country column coherence = %v, want > 0.5", coherent)
	}
	if incoherent >= 0 {
		t.Errorf("mixed column coherence = %v, want < 0", incoherent)
	}
}

func TestColumnCoherenceNeutralCases(t *testing.T) {
	idx := BuildIndex(corpusOf([]string{"a", "b"}))
	// Single distinct value: vacuously coherent.
	if got := idx.ColumnCoherence([]string{"x", "x"}); got != 1 {
		t.Errorf("single-value column = %v, want 1", got)
	}
	// Values unseen outside the scored column: neutral, not incoherent.
	if got := idx.ColumnCoherence([]string{"a", "b"}); got != 0 {
		t.Errorf("no-evidence column = %v, want 0 (neutral)", got)
	}
}

func TestColumnCoherenceSampling(t *testing.T) {
	// Columns longer than MaxCoherenceSample are sampled, not quadratic.
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	idx := BuildIndex(corpusOf(vals, vals))
	_ = idx.ColumnCoherence(vals) // must terminate quickly; value unchecked
}

func TestAppendEquivalence(t *testing.T) {
	all := corpusOf(
		[]string{"USA", "Canada", "Mexico"},
		[]string{"usa", "canada"},
		[]string{"Canada", "Japan"},
		[]string{"usa", "usa", "USA"},
		[]string{"Japan", "Korea", ""},
		[]string{"korea", "mexico"},
	)
	for split := 0; split <= len(all); split++ {
		inc := BuildIndex(all[:split])
		inc.Append(all[split:])
		full := BuildIndex(all)
		if inc.NumColumns() != full.NumColumns() {
			t.Fatalf("split %d: NumColumns %d vs %d", split, inc.NumColumns(), full.NumColumns())
		}
		for _, u := range []string{"usa", "canada", "mexico", "japan", "korea", "absent"} {
			if inc.DocFreq(u) != full.DocFreq(u) {
				t.Fatalf("split %d: DocFreq(%s) %d vs %d", split, u, inc.DocFreq(u), full.DocFreq(u))
			}
			for _, v := range []string{"usa", "canada", "mexico", "japan", "korea"} {
				if inc.CoFreq(u, v) != full.CoFreq(u, v) {
					t.Fatalf("split %d: CoFreq(%s,%s) %d vs %d", split, u, v, inc.CoFreq(u, v), full.CoFreq(u, v))
				}
				in, fn := inc.NPMI(u, v), full.NPMI(u, v)
				if in != fn && !(math.IsNaN(in) && math.IsNaN(fn)) {
					t.Fatalf("split %d: NPMI(%s,%s) %v vs %v", split, u, v, in, fn)
				}
			}
		}
	}
}

// TestIntersectCountMatchesSet checks both strategies of intersectCount —
// the merge for lists of similar length and the search for skewed ones —
// against a set, including empty lists and lists that end before the other.
func TestIntersectCountMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randList := func(n, universe int) []int32 {
		set := make(map[int32]struct{}, n)
		for len(set) < n {
			set[int32(rng.Intn(universe))] = struct{}{}
		}
		out := make([]int32, 0, n)
		for v := range set {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		universe := 1 + rng.Intn(400)
		a := randList(rng.Intn(min(universe, 12)+1), universe)
		b := randList(rng.Intn(min(universe, 300)+1), universe)
		in := make(map[int32]struct{}, len(a))
		for _, v := range a {
			in[v] = struct{}{}
		}
		want := 0
		for _, v := range b {
			if _, ok := in[v]; ok {
				want++
			}
		}
		if got := intersectCount(a, b); got != want {
			t.Fatalf("intersectCount(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := intersectCount(b, a); got != want {
			t.Fatalf("intersectCount(b, a) = %d, want %d for a=%v b=%v", got, want, a, b)
		}
	}
}

// TestColumnCoherenceMatchesPairwiseLookups recomputes S(C) the way it was
// computed before posting lists were fetched once per value — DocFreq and
// CoFreq looked up per pair — and requires the identical float.
func TestColumnCoherenceMatchesPairwiseLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("Value %d", i)
	}
	var cols [][]string
	for c := 0; c < 60; c++ {
		col := make([]string, 2+rng.Intn(40))
		for i := range col {
			col[i] = vocab[rng.Intn(len(vocab))]
		}
		cols = append(cols, col)
	}
	idx := BuildIndex(corpusOf(cols...))
	for _, col := range cols {
		var distinct []string
		seen := map[string]bool{}
		for _, v := range col {
			nv := textnorm.Normalize(v)
			if nv == "" || seen[nv] {
				continue
			}
			seen[nv] = true
			if distinct = append(distinct, nv); len(distinct) >= MaxCoherenceSample {
				break
			}
		}
		want := 1.0
		if len(distinct) >= 2 {
			var sum float64
			pairs := 0
			for i := range distinct {
				for j := i + 1; j < len(distinct); j++ {
					u, v := distinct[i], distinct[j]
					du, dv := idx.DocFreq(u)-1, idx.DocFreq(v)-1
					if du <= 0 || dv <= 0 {
						continue
					}
					pairs++
					co := idx.CoFreq(u, v) - 1
					if co <= 0 || idx.n <= 1 {
						sum += -1
						continue
					}
					n := float64(idx.n)
					puv := float64(co) / n
					if puv >= 1 {
						sum += 1
						continue
					}
					sum += math.Log(puv/(float64(du)/n*(float64(dv)/n))) / (-math.Log(puv))
				}
			}
			want = 0
			if pairs > 0 {
				want = sum / float64(pairs)
			}
		}
		if got := idx.ColumnCoherence(col); got != want {
			t.Fatalf("ColumnCoherence = %v, pairwise lookups give %v", got, want)
		}
	}
}

// pairwiseCoherence is S(C) over a drawn sample as it was computed before the
// co-occurrence sweep: one posting-list intersection per value pair.
func pairwiseCoherence(x *CooccurrenceIndex, sample []string) float64 {
	if len(sample) < 2 {
		return 1
	}
	var sum float64
	pairs := 0
	for i := range sample {
		for j := i + 1; j < len(sample); j++ {
			u, v := x.columns[sample[i]], x.columns[sample[j]]
			s, ok := x.npmiDiscounted(len(u)-1, len(v)-1, intersectCount(u, v)-1)
			if !ok {
				continue
			}
			sum += s
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// TestCoherenceSweepMatchesPairwise compares the one-sweep co-occurrence
// counts against pairwise intersection float for float, on random indexes
// before and after Append (which must grow the pooled scratch). Vocabularies
// are larger than MaxCoherenceSample, some values occur in one column only,
// and some scored columns are not in the index at all.
func TestCoherenceSweepMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	randCol := func(vocab []string) []string {
		col := make([]string, 1+rng.Intn(50))
		for i := range col {
			if rng.Intn(8) == 0 {
				col[i] = fmt.Sprintf("rare %d", rng.Int()) // posting list of one
			} else {
				col[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		return col
	}
	for trial := 0; trial < 20; trial++ {
		vocab := make([]string, 2+rng.Intn(80))
		for i := range vocab {
			vocab[i] = fmt.Sprintf("V%d", i)
		}
		var cols [][]string
		for c := 0; c < 5+rng.Intn(120); c++ {
			cols = append(cols, randCol(vocab))
		}
		split := rng.Intn(len(cols) + 1)
		idx := BuildIndex(corpusOf(cols[:split]...))
		check := func(stage string) {
			t.Helper()
			scored := append(append([][]string(nil), cols...), randCol(vocab), randCol(vocab))
			for _, col := range scored {
				var sample []string
				seen := map[string]bool{}
				for _, v := range col {
					if nv := textnorm.Normalize(v); nv != "" && !seen[nv] && len(sample) < MaxCoherenceSample {
						seen[nv] = true
						sample = append(sample, nv)
					}
				}
				if got, want := idx.ColumnCoherence(col), pairwiseCoherence(idx, sample); got != want {
					t.Fatalf("trial %d %s: sweep %v, pairwise %v for %v", trial, stage, got, want, sample)
				}
			}
		}
		check("before Append")
		idx.Append(corpusOf(cols[split:]...))
		check("after Append")
	}
}
