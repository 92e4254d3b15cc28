package apps

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// The oracles below are the applications as they stood when every hit
// re-normalized its mapping's pairs: LookupAll and SupportOf scanned Pairs
// per call, and auto-correct built four maps over all pairs per hit. The
// query-level functions are otherwise verbatim, so Session must answer
// exactly as they do, candidates included.

// oracleLookupAll scans Pairs for every recorded right of left, the
// majority winner (what Lookup answers) first.
func oracleLookupAll(m *mapping.Mapping, left string) []string {
	win, ok := m.Lookup(left)
	if !ok {
		return nil
	}
	nl, nwin := textnorm.Normalize(left), textnorm.Normalize(win)
	out := []string{win}
	for _, p := range m.Pairs {
		pl, pr, ok := textnorm.NormalizePair(p.L, p.R)
		if ok && pl == nl && pr != nwin {
			out = append(out, p.R)
		}
	}
	return out
}

// oracleSupportOf scans Pairs for p's normalized pair.
func oracleSupportOf(m *mapping.Mapping, p table.Pair) int {
	nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
	if !ok {
		return 0
	}
	sups := m.PairSupports()
	for i, q := range m.Pairs {
		ql, qr, _ := textnorm.NormalizePair(q.L, q.R)
		if ql == nl && qr == nr {
			return sups[i]
		}
	}
	return 0
}

func oracleLookup(ix lookupIndex, key string) LookupResult {
	res := LookupResult{Key: key, MappingIndex: -1}
	hits := ix.LookupLeft([]string{key}, 1)
	if len(hits) == 0 {
		return res
	}
	m := hits[0].Mapping
	val, ok := m.Lookup(key)
	if !ok {
		return res
	}
	res = LookupResult{
		Found: true, Key: key, Value: val, MappingIndex: hits[0].Index, MappingID: m.ID,
		Support: oracleSupportOf(m, table.Pair{L: key, R: val}),
		Tables:  m.NumTables(), Domains: m.NumDomains(),
	}
	if all := oracleLookupAll(m, key); len(all) > 1 {
		res.Alternatives = all[1:]
	}
	return res
}

func oracleAutoFill(ix lookupIndex, q AutoFillQuery) AutoFillResult {
	k := max(q.TopK, 1)
	var cands []AutoFillResult
	for _, hit := range ix.LookupLeft(q.Column, q.MinCoverage) {
		if len(cands) == k {
			break
		}
		m := hit.Mapping
		ok := true
		for _, ex := range q.Examples {
			got, found := m.Lookup(ex.Left)
			if !found || textnorm.Normalize(got) != textnorm.Normalize(ex.Right) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		res := AutoFillResult{MappingIndex: hit.Index, Filled: make(map[int]string)}
		for i, v := range q.Column {
			if r, found := m.Lookup(v); found {
				res.Filled[i] = r
			}
		}
		cands = append(cands, res)
	}
	if len(cands) == 0 {
		return AutoFillResult{MappingIndex: -1}
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

func oracleAutoCorrect(ix lookupIndex, q AutoCorrectQuery) AutoCorrectResult {
	hits := ix.MixedColumnHits(q.Column, q.MinEach, q.MinCoverage)
	if len(hits) == 0 {
		return AutoCorrectResult{MappingIndex: -1}
	}
	if k := max(q.TopK, 1); len(hits) > k {
		hits = hits[:k]
	}
	cands := make([]AutoCorrectResult, len(hits))
	for i, hit := range hits {
		cands[i] = oracleAutoCorrectForHit(hit, q.Column)
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

func oracleAutoCorrectForHit(hit index.Hit, column []string) AutoCorrectResult {
	m := hit.Mapping
	leftOf := make(map[string]string)  // normalized right -> left surface
	rightOf := make(map[string]string) // normalized left -> right surface
	leftSurface := make(map[string]string)
	rightSurface := make(map[string]string)
	for _, p := range m.Pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		if _, dup := leftOf[nr]; !dup {
			leftOf[nr] = p.L
		}
		if _, dup := rightOf[nl]; !dup {
			rightOf[nl] = p.R
		}
		if _, dup := leftSurface[nl]; !dup {
			leftSurface[nl] = p.L
		}
		if _, dup := rightSurface[nr]; !dup {
			rightSurface[nr] = p.R
		}
	}
	type cellSide struct {
		row  int
		side int // 0 unknown, 1 left, 2 right
	}
	sides := make([]cellSide, len(column))
	leftCount, rightCount := 0, 0
	for i, v := range column {
		nv := textnorm.Normalize(v)
		_, isL := leftSurface[nv]
		_, isR := rightSurface[nv]
		s := cellSide{row: i}
		switch {
		case isL && !isR:
			s.side = 1
			leftCount++
		case isR && !isL:
			s.side = 2
			rightCount++
		case isL && isR:
			s.side = 1
			leftCount++
		}
		sides[i] = s
	}
	res := AutoCorrectResult{MappingIndex: hit.Index}
	majorityLeft := leftCount >= rightCount
	for _, s := range sides {
		nv := textnorm.Normalize(column[s.row])
		switch {
		case majorityLeft && s.side == 2:
			if repl, ok := leftOf[nv]; ok {
				res.Corrections = append(res.Corrections, Correction{Row: s.row, Original: column[s.row], Suggested: repl})
			}
		case !majorityLeft && s.side == 1:
			if repl, ok := rightOf[nv]; ok {
				res.Corrections = append(res.Corrections, Correction{Row: s.row, Original: column[s.row], Suggested: repl})
			}
		}
	}
	sort.Slice(res.Corrections, func(i, j int) bool { return res.Corrections[i].Row < res.Corrections[j].Row })
	return res
}

func oracleAutoJoin(ix lookupIndex, q AutoJoinQuery) AutoJoinResult {
	hits := ix.LookupLeft(q.KeysA, q.MinCoverage)
	if len(hits) == 0 {
		return AutoJoinResult{MappingIndex: -1}
	}
	bRows := make(map[string][]int, len(q.KeysB))
	for i, v := range q.KeysB {
		if nv := textnorm.Normalize(v); nv != "" {
			bRows[nv] = append(bRows[nv], i)
		}
	}
	var cands []AutoJoinResult
	for _, hit := range hits {
		res := AutoJoinResult{MappingIndex: hit.Index}
		seenLeft := make(map[int]struct{})
		for i, v := range q.KeysA {
			seenJoin := make(map[int]struct{})
			for _, r := range oracleLookupAll(hit.Mapping, v) {
				for _, j := range bRows[textnorm.Normalize(r)] {
					if _, dup := seenJoin[j]; dup {
						continue
					}
					seenJoin[j] = struct{}{}
					res.Rows = append(res.Rows, JoinRow{LeftRow: i, RightRow: j})
					seenLeft[i] = struct{}{}
				}
			}
		}
		if res.Bridged = len(seenLeft); res.Bridged > 0 {
			cands = append(cands, res)
		}
	}
	if len(cands) == 0 {
		return AutoJoinResult{MappingIndex: -1}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Bridged > cands[j].Bridged })
	if k := max(q.TopK, 1); len(cands) > k {
		cands = cands[:k]
	}
	for c := range cands {
		rows := cands[c].Rows
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].LeftRow != rows[j].LeftRow {
				return rows[i].LeftRow < rows[j].LeftRow
			}
			return rows[i].RightRow < rows[j].RightRow
		})
	}
	res := cands[0]
	if q.TopK > 0 {
		res.Candidates = cands
	}
	return res
}

// diffKey is one entity of the differential corpus: surface variants of
// its left value and, per relation (code3, code2, capital), of its right.
type diffKey struct {
	lefts  []string
	rights [3][]string
}

var diffKeys = []diffKey{
	{[]string{"Japan", "JAPAN", "Japan[1]", "japan "}, [3][]string{{"JPN", "jpn", "Jpn."}, {"JP", "jp"}, {"Tokyo", "TOKYO"}}},
	{[]string{"Peru", "peru"}, [3][]string{{"PER", "per"}, {"PE"}, {"Lima", "lima[3]"}}},
	{[]string{"Côte d'Ivoire", "côte d ivoire", "CÔTE D'IVOIRE"}, [3][]string{{"CIV"}, {"CI", "ci"}, {"Yamoussoukro", "Abidjan"}}},
	{[]string{"Chad", "chad."}, [3][]string{{"TCD"}, {"TD"}, {"N'Djamena", "N Djamena"}}},
	{[]string{"U.S.A.", "u s a", "USA"}, [3][]string{{"USA", "U.S.A"}, {"US"}, {"Washington", "Washington, D.C."}}},
	{[]string{"Fiji"}, [3][]string{{"FJI"}, {"FJ"}, {"Suva"}}},
}

// diffTable draws one candidate table of relation rel: mostly clean pairs,
// with rights of other relations (several rights per left), rights that
// normalize to "" and lefts that do not normalize at all mixed in.
func diffTable(rng *rand.Rand, id, rel int) *table.BinaryTable {
	n := 2 + rng.Intn(7)
	ls, rs := make([]string, n), make([]string, n)
	for i := range ls {
		k := diffKeys[rng.Intn(len(diffKeys))]
		r := rel
		if rng.Intn(8) == 0 {
			r = rng.Intn(3)
		}
		ls[i] = k.lefts[rng.Intn(len(k.lefts))]
		rs[i] = k.rights[r][rng.Intn(len(k.rights[r]))]
		switch rng.Intn(20) {
		case 0:
			ls[i] = []string{"", "[x]"}[rng.Intn(2)]
		case 1:
			rs[i] = []string{"", "[2]"}[rng.Intn(2)]
		}
	}
	dom := []string{"a.com", "b.com", "c.com", "d.com"}[rng.Intn(4)]
	return table.NewBinaryTable(id, rng.Intn(30), dom, "l", "r", ls, rs)
}

// diffProbes returns every surface value of the corpus plus absent ones,
// and every pair over them.
func diffProbes() ([]string, []table.Pair) {
	vals := []string{"nowhere", "", "[x]"}
	var lefts, rights []string
	for _, k := range diffKeys {
		lefts = append(lefts, k.lefts...)
		for _, rs := range k.rights {
			rights = append(rights, rs...)
		}
	}
	vals = append(append(vals, lefts...), rights...)
	var pairs []table.Pair
	for _, l := range append(lefts, "nowhere", "") {
		for _, r := range append(rights, "", "[2]") {
			pairs = append(pairs, table.Pair{L: l, R: r})
		}
	}
	return vals, pairs
}

// checkSameMapping compares every observable answer of a restored mapping
// with the mapping it was written from.
func checkSameMapping(t *testing.T, got, want *mapping.Mapping, probes []string, probePairs []table.Pair) {
	t.Helper()
	if got.ID != want.ID || !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.TableIDs, want.TableIDs) ||
		!reflect.DeepEqual(got.Domains, want.Domains) || !reflect.DeepEqual(got.CandidateIDs, want.CandidateIDs) {
		t.Fatalf("restored %v differs from written %v", got, want)
	}
	if g, w := got.PairSupports(), want.PairSupports(); !reflect.DeepEqual(g, w) {
		t.Fatalf("mapping %d: restored PairSupports %v, written %v", want.ID, g, w)
	}
	if g, w := got.SurfaceRights(), want.SurfaceRights(); !reflect.DeepEqual(g, w) {
		t.Fatalf("mapping %d: restored SurfaceRights %v, written %v", want.ID, g, w)
	}
	gl, gr := got.NormalizedValues()
	wl, wr := want.NormalizedValues()
	if !reflect.DeepEqual(gl, wl) || !reflect.DeepEqual(gr, wr) {
		t.Fatalf("mapping %d: restored NormalizedValues %q %q, written %q %q", want.ID, gl, gr, wl, wr)
	}
	for _, v := range probes {
		gv, gok := got.Lookup(v)
		wv, wok := want.Lookup(v)
		if gv != wv || gok != wok {
			t.Fatalf("mapping %d: restored Lookup(%q) = %q, %v; written %q, %v", want.ID, v, gv, gok, wv, wok)
		}
		if g, w := got.LookupAll(v), want.LookupAll(v); !reflect.DeepEqual(g, w) {
			t.Fatalf("mapping %d: restored LookupAll(%q) = %q, written %q", want.ID, v, g, w)
		}
		if g, w := got.LookupAll(v), oracleLookupAll(want, v); !reflect.DeepEqual(g, w) {
			t.Fatalf("mapping %d: LookupAll(%q) = %q, oracle %q", want.ID, v, g, w)
		}
	}
	for _, p := range probePairs {
		if g, w := got.SupportOf(p), want.SupportOf(p); g != w {
			t.Fatalf("mapping %d: restored SupportOf(%v) = %d, written %d", want.ID, p, g, w)
		}
		if g, w := got.SupportOf(p), oracleSupportOf(want, p); g != w {
			t.Fatalf("mapping %d: SupportOf(%v) = %d, oracle %d", want.ID, p, g, w)
		}
	}
}

// TestAppsMatchOracle builds random mappings with Build and BuildFromPairs,
// round-trips them through a v2 image (WriteV2, Open, Mapping: the Restore
// path every server takes), checks each restored mapping answers as the
// one written, then checks every application, candidates included, against
// the oracles over the image's index.
func TestAppsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	probes, probePairs := diffProbes()
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		var maps []*mapping.Mapping
		for id := 0; id < 12; id++ {
			rel := rng.Intn(3)
			var cands []*table.BinaryTable
			var all []table.Pair
			for c := 1 + rng.Intn(4); c > 0; c-- {
				b := diffTable(rng, len(maps)*10+c, rel)
				cands = append(cands, b)
				all = append(all, b.Pairs...)
			}
			if rng.Intn(2) == 0 {
				maps = append(maps, mapping.Build(id, cands))
				continue
			}
			var voted []table.Pair
			for _, p := range all {
				if rng.Intn(3) > 0 {
					voted = append(voted, p)
				}
			}
			maps = append(maps, mapping.BuildFromPairs(id, voted, cands))
		}
		path := filepath.Join(t.TempDir(), "diff.snap")
		if err := snapshot.WriteFileV2(path, maps); err != nil {
			t.Fatal(err)
		}
		h, err := snapshot.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if h.Len() != len(maps) {
			t.Fatalf("image holds %d mappings, wrote %d", h.Len(), len(maps))
		}
		for i, want := range maps {
			checkSameMapping(t, h.Mapping(i), want, probes, probePairs)
		}

		ix := index.FromSource(h)
		sess := NewSession(ix)
		pick := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = probes[rng.Intn(len(probes))]
			}
			return out
		}
		for q := 0; q < 40; q++ {
			key := probes[rng.Intn(len(probes))]
			lr, err := sess.Lookup(ctx, []LookupQuery{{Key: key}})
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleLookup(ix, key); !reflect.DeepEqual(lr[0], want) {
				t.Fatalf("trial %d: Lookup(%q) = %+v, oracle %+v", trial, key, lr[0], want)
			}

			topK := rng.Intn(4)
			cov := []float64{0.3, 0.5, 0.8}[rng.Intn(3)]
			fq := AutoFillQuery{Column: pick(2 + rng.Intn(6)), MinCoverage: cov, TopK: topK}
			if rng.Intn(2) == 0 {
				ex := pick(2)
				fq.Examples = []Example{{Left: ex[0], Right: ex[1]}}
				if v, ok := ix.Mapping(rng.Intn(ix.Len())).Lookup(ex[0]); ok && rng.Intn(2) == 0 {
					fq.Examples[0].Right = v
				}
			}
			fr, err := sess.AutoFill(ctx, []AutoFillQuery{fq})
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleAutoFill(ix, fq); !reflect.DeepEqual(fr[0], want) {
				t.Fatalf("trial %d: AutoFill(%+v) = %+v, oracle %+v", trial, fq, fr[0], want)
			}

			cq := AutoCorrectQuery{Column: pick(3 + rng.Intn(6)), MinEach: 1 + rng.Intn(2), MinCoverage: cov, TopK: topK}
			cr, err := sess.AutoCorrect(ctx, []AutoCorrectQuery{cq})
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleAutoCorrect(ix, cq); !reflect.DeepEqual(cr[0], want) {
				t.Fatalf("trial %d: AutoCorrect(%+v) = %+v, oracle %+v", trial, cq, cr[0], want)
			}

			jq := AutoJoinQuery{KeysA: pick(2 + rng.Intn(6)), KeysB: pick(2 + rng.Intn(8)), MinCoverage: cov, TopK: topK}
			jr, err := sess.AutoJoin(ctx, []AutoJoinQuery{jq})
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleAutoJoin(ix, jq); !reflect.DeepEqual(jr[0], want) {
				t.Fatalf("trial %d: AutoJoin(%+v) = %+v, oracle %+v", trial, jq, jr[0], want)
			}
		}
		h.Close()
	}
}
