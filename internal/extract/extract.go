// Package extract implements candidate table extraction (Section 3,
// Algorithm 1): from every corpus table it derives ordered two-column
// candidates, filtering incoherent columns with NPMI coherence (Section 3.1)
// and non-functional column pairs with approximate FD checking (Section 3.2).
package extract

import (
	"context"
	"sync"

	"mapsynth/internal/fd"
	"mapsynth/internal/pool"
	"mapsynth/internal/stats"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// Options configures candidate extraction.
type Options struct {
	// CoherenceThreshold is the minimum column coherence S(C); columns
	// scoring below it are removed before pair generation. The NPMI range
	// is [-1, 1]; mixed-concept columns land near or below 0.
	CoherenceThreshold float64
	// ThetaFD is the approximate-FD threshold θ (paper: 0.95).
	ThetaFD float64
	// MinPairs drops candidates with fewer distinct value pairs; tiny
	// tables carry no statistical signal (paper tables are "for human
	// consumption" but still have several rows).
	MinPairs int
	// MaxDistinctRightRatio guards against key→key pairs that trivially
	// satisfy FDs without being mappings (e.g. row-number → anything):
	// a candidate is dropped when both directions are perfectly functional
	// AND every left value is unique AND every right value is unique AND
	// the values look numeric. Set to 0 to disable numeric filtering.
	SkipNumericColumns bool
}

// DefaultOptions returns the options used throughout the paper's
// experiments: θ = 0.95, a mildly positive coherence threshold, and
// candidates with at least 4 value pairs.
func DefaultOptions() Options {
	return Options{
		CoherenceThreshold: -0.3,
		ThetaFD:            fd.DefaultTheta,
		MinPairs:           4,
		SkipNumericColumns: true,
	}
}

// Stats reports what extraction did, reproducing the paper's observation
// that roughly 78% of column pairs are pruned by the two filters.
type Stats struct {
	Tables          int // input tables scanned
	ColumnsTotal    int // columns seen
	ColumnsDropped  int // columns removed by the coherence filter
	PairsRaw        int // all ordered column pairs before any filtering
	PairsTotal      int // ordered column pairs left after column filtering
	PairsFDRejected int // pairs rejected by the approximate-FD filter
	PairsTooSmall   int // pairs rejected for having < MinPairs distinct pairs
	PairsNumeric    int // pairs rejected by the numeric filter
	Candidates      int // surviving candidates
}

// FilterRate returns the fraction of raw ordered pairs pruned by the PMI
// and FD filters combined (the paper reports ~78% on its web corpus).
func (s Stats) FilterRate() float64 {
	if s.PairsRaw == 0 {
		return 0
	}
	return float64(s.PairsRaw-s.Candidates) / float64(s.PairsRaw)
}

// Add accumulates another Stats into s — used to merge per-table stats from
// parallel extraction workers. Tables and Candidates are deliberately not
// summed: they describe the whole extraction run and are set once by the
// caller that knows the corpus size and final candidate count.
func (s *Stats) Add(o Stats) {
	s.ColumnsTotal += o.ColumnsTotal
	s.ColumnsDropped += o.ColumnsDropped
	s.PairsRaw += o.PairsRaw
	s.PairsTotal += o.PairsTotal
	s.PairsFDRejected += o.PairsFDRejected
	s.PairsTooSmall += o.PairsTooSmall
	s.PairsNumeric += o.PairsNumeric
}

// Extractor turns corpus tables into candidate binary tables.
type Extractor struct {
	opt Options
	idx *stats.CooccurrenceIndex
}

// tableScratches holds one *tableScratch per table being extracted.
var tableScratches sync.Pool

// tableScratch is one worker's state for extracting a table. The table's
// cells are interned twice: every distinct cell value gets a raw id, and
// every distinct normalized value an id, so each distinct value is
// normalized once and every filter after that compares dense ids.
type tableScratch struct {
	raw    map[string]int32 // cell value → raw id; raw id 0 is ""
	rawVal []string         // raw id → cell value
	normOf []int32          // raw id → id of its normalized value
	norm   map[string]int32 // normalized value → id; id 0 is the empty value
	vals   []string         // id → normalized value
	rows   [][]int32        // per column, the raw id of every cell
	cols   [][]int32        // per column, the normalized id of every cell
	// numeric caches isNumeric per normalized id: 0 unknown, 1 no, 2 yes.
	numeric []int8
	// seen is, per normalized id, the stamp of the last column sampling it.
	seen []uint32
	stmp uint32
	// rawPairs, normPairs and kept serve one candidate: the raw and the
	// normalized id pairs it holds, and the row each of its pairs came from.
	rawPairs, normPairs pairSet
	kept                []int32
	fd                  fd.Checker
}

// pairSet is a set of id pairs for one candidate at a time. Every left id
// heads a chain of the rights added with it; a stamp per left id marks the
// chains of the current candidate, so starting the next one clears nothing.
// Candidates are functional, so a chain is almost always one entry long.
type pairSet struct {
	stamp []uint32 // per left id: the candidate that last added one
	head  []int32  // per left id: its last entry
	right []int32  // per entry
	prev  []int32  // per entry: the entry before it with the same left, or -1
	cur   uint32
}

// reset empties the set for left ids below n.
func (s *pairSet) reset(n int) {
	if s.cur++; s.cur == 0 { // wrapped: no stale stamp may match
		clear(s.stamp)
		s.cur = 1
	}
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.head = append(s.head, make([]int32, n-len(s.head))...)
	}
	s.right, s.prev = s.right[:0], s.prev[:0]
}

// add adds the pair l, r and reports whether it was new.
func (s *pairSet) add(l, r int32) bool {
	prev := int32(-1)
	if s.stamp[l] == s.cur {
		for e := s.head[l]; e >= 0; e = s.prev[e] {
			if s.right[e] == r {
				return false
			}
		}
		prev = s.head[l]
	}
	s.stamp[l], s.head[l] = s.cur, int32(len(s.right))
	s.right, s.prev = append(s.right, r), append(s.prev, prev)
	return true
}

// intern fills the scratch with the ids of t's cells.
func (sc *tableScratch) intern(t *table.Table) {
	if sc.raw == nil {
		sc.raw, sc.norm = make(map[string]int32), make(map[string]int32)
	}
	clear(sc.raw)
	clear(sc.norm)
	sc.raw[""], sc.norm[""] = 0, 0
	sc.rawVal, sc.normOf, sc.vals = append(sc.rawVal[:0], ""), append(sc.normOf[:0], 0), append(sc.vals[:0], "")
	for len(sc.rows) < len(t.Columns) {
		sc.rows, sc.cols = append(sc.rows, nil), append(sc.cols, nil)
	}
	for ci := range t.Columns {
		rows, cols := sc.rows[ci][:0], sc.cols[ci][:0]
		for _, v := range t.Columns[ci].Values {
			rid, ok := sc.raw[v]
			if !ok {
				rid = int32(len(sc.rawVal))
				sc.raw[v] = rid
				sc.rawVal = append(sc.rawVal, v)
				nv := textnorm.Normalize(v)
				id, ok := sc.norm[nv]
				if !ok {
					id = int32(len(sc.vals))
					sc.norm[nv] = id
					sc.vals = append(sc.vals, nv)
				}
				sc.normOf = append(sc.normOf, id)
			}
			rows, cols = append(rows, rid), append(cols, sc.normOf[rid])
		}
		sc.rows[ci], sc.cols[ci] = rows, cols
	}
	sc.numeric = append(sc.numeric[:0], make([]int8, len(sc.vals))...)
	if len(sc.seen) < len(sc.vals) {
		sc.seen = append(sc.seen, make([]uint32, len(sc.vals)-len(sc.seen))...)
	}
}

// sample returns the coherence sample of column ci: its first distinct
// non-empty normalized values, at most stats.MaxCoherenceSample of them.
func (sc *tableScratch) sample(ci int, dst []string) []string {
	if sc.stmp++; sc.stmp == 0 { // wrapped: no stale stamp may match
		clear(sc.seen)
		sc.stmp = 1
	}
	for _, id := range sc.cols[ci] {
		if id == 0 || sc.seen[id] == sc.stmp {
			continue
		}
		sc.seen[id] = sc.stmp
		if dst = append(dst, sc.vals[id]); len(dst) >= stats.MaxCoherenceSample {
			break
		}
	}
	return dst
}

// binary is table.NewBinaryTable over columns i → j of t, deduplicating
// rows by their raw ids. It leaves in sc.kept the row each pair came from.
func (sc *tableScratch) binary(id int, t *table.Table, i, j int) *table.BinaryTable {
	ci, cj := &t.Columns[i], &t.Columns[j]
	b := &table.BinaryTable{ID: id, TableID: t.ID, Domain: t.Domain, LeftName: ci.Name, RightName: cj.Name}
	ls, rs := sc.rows[i], sc.rows[j]
	sc.rawPairs.reset(len(sc.rawVal))
	sc.kept = sc.kept[:0]
	for r := range min(len(ls), len(rs)) {
		if ls[r] != 0 && sc.rawPairs.add(ls[r], rs[r]) {
			sc.kept = append(sc.kept, int32(r))
		}
	}
	b.Pairs = make([]table.Pair, len(sc.kept))
	for k, r := range sc.kept {
		b.Pairs[k] = table.Pair{L: ci.Values[r], R: cj.Values[r]}
	}
	return b
}

// view returns the normalized view (table.Norm) of the candidate binary
// just built over columns i → j, from the normalized ids of the rows it
// kept: the pairs with a non-empty left, first occurrence of each.
func (sc *tableScratch) view(i, j int) []table.NormPair {
	out := make([]table.NormPair, 0, len(sc.kept))
	sc.normPairs.reset(len(sc.vals))
	for src, r := range sc.kept {
		l, rv := sc.cols[i][r], sc.cols[j][r]
		if l == 0 || !sc.normPairs.add(l, rv) {
			continue
		}
		nl := sc.vals[l]
		key := textnorm.PairKey(nl, sc.vals[rv])
		out = append(out, table.NormPair{L: key[:len(nl)], R: key[len(nl)+1:], Key: key, Src: src})
	}
	return out
}

// mostlyNumeric reports whether both sides of the candidate binary just
// built over columns i → j are dominated by purely numeric values. Purely
// numeric two-column tables are overwhelmingly measurements or rankings,
// which the paper's curation step prunes ("additional filtering can be
// performed to further prune out numeric and temporal relationships").
func (sc *tableScratch) mostlyNumeric(i, j int) bool {
	n := len(sc.kept)
	if n == 0 {
		return false
	}
	numL, numR := 0, 0
	for _, r := range sc.kept {
		if sc.isNumeric(sc.cols[i][r]) {
			numL++
		}
		if sc.isNumeric(sc.cols[j][r]) {
			numR++
		}
	}
	return numL*10 >= n*9 && numR*10 >= n*9 // both sides >= 90% numeric
}

// isNumeric is isNumeric of normalized value id, computed once per table.
func (sc *tableScratch) isNumeric(id int32) bool {
	if sc.numeric[id] == 0 {
		sc.numeric[id] = 1
		if isNumeric(sc.vals[id]) { // a normalized value normalizes to itself
			sc.numeric[id] = 2
		}
	}
	return sc.numeric[id] == 2
}

// New returns an Extractor over the corpus co-occurrence index. The index
// must have been built from the same corpus the tables come from (or a
// superset) so coherence scores are meaningful.
func New(idx *stats.CooccurrenceIndex, opt Options) *Extractor {
	return &Extractor{opt: opt, idx: idx}
}

// ExtractAll runs Algorithm 1 over the whole corpus and returns the
// candidate set with IDs assigned densely in deterministic order, plus
// extraction statistics.
func (e *Extractor) ExtractAll(tables []*table.Table) ([]*table.BinaryTable, Stats) {
	out, st, _ := e.ExtractAllParallel(context.Background(), tables, pool.New(1))
	return out, st
}

// ExtractTable runs Algorithm 1 over a single table. Candidate IDs are
// assigned densely from 0 in the table's own extraction order; callers
// fanning out over many tables renumber afterwards (see ExtractAllParallel).
func (e *Extractor) ExtractTable(t *table.Table) ([]*table.BinaryTable, Stats) {
	var st Stats
	nextID := 0
	cands := e.extractTable(t, &st, &nextID)
	st.Tables = 1
	st.Candidates = len(cands)
	return cands, st
}

// ExtractAllParallel is ExtractAll with the per-table work fanned out over
// the worker pool. Output is deterministic and identical to a sequential
// pass regardless of worker count: per-table results land in table order
// and candidate IDs are reassigned densely in that order afterwards. On
// cancellation it returns ctx's error and partial results must be ignored.
func (e *Extractor) ExtractAllParallel(ctx context.Context, tables []*table.Table, p *pool.Pool) ([]*table.BinaryTable, Stats, error) {
	perTable := make([][]*table.BinaryTable, len(tables))
	perStats := make([]Stats, len(tables))
	if err := p.ForEach(ctx, len(tables), func(i int) {
		perTable[i], perStats[i] = e.ExtractTable(tables[i])
	}); err != nil {
		return nil, Stats{}, err
	}
	var out []*table.BinaryTable
	var st Stats
	nextID := 0
	for i := range perTable {
		for _, b := range perTable[i] {
			b.ID = nextID
			nextID++
			out = append(out, b)
		}
		st.Add(perStats[i])
	}
	st.Tables = len(tables)
	st.Candidates = len(out)
	return out, st, nil
}

// extractTable applies the column coherence filter and then the FD pair
// filter to one table. Both read the table's interned cells.
func (e *Extractor) extractTable(t *table.Table, st *Stats, nextID *int) []*table.BinaryTable {
	st.ColumnsTotal += len(t.Columns)
	st.PairsRaw += len(t.Columns) * (len(t.Columns) - 1)
	sc, _ := tableScratches.Get().(*tableScratch)
	if sc == nil {
		sc = new(tableScratch)
	}
	defer tableScratches.Put(sc)
	sc.intern(t)
	var kept []int
	var sample [stats.MaxCoherenceSample]string
	for ci := range t.Columns {
		if e.idx.Coherence(sc.sample(ci, sample[:0])) < e.opt.CoherenceThreshold {
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
			res := sc.fd.CheckIDs(sc.cols[i], sc.cols[j], len(sc.vals))
			if !res.Holds(e.opt.ThetaFD) {
				st.PairsFDRejected++
				continue
			}
			// A functional pair with a single distinct right value for
			// many lefts is usually a constant column, not a mapping.
			if res.DistinctLeft >= 3 && res.DistinctRight == 1 {
				st.PairsFDRejected++
				continue
			}
			b := sc.binary(*nextID, t, i, j)
			if b.Size() < e.opt.MinPairs {
				st.PairsTooSmall++
				continue
			}
			if e.opt.SkipNumericColumns && (sc.mostlyNumeric(i, j) || rowNumberColumn(b)) {
				st.PairsNumeric++
				continue
			}
			b.SetNorm(sc.view(i, j))
			*nextID++
			out = append(out, b)
		}
	}
	return out
}

// rowNumberColumn reports whether the candidate's left column is a row
// counter: consecutive small integers starting at 1. Such columns trivially
// satisfy FDs against anything without expressing a mapping.
func rowNumberColumn(b *table.BinaryTable) bool {
	var seen [rowNumberMax + 1]bool
	distinct := 0
	for _, p := range b.Pairs {
		nv := textnorm.Normalize(p.L)
		num := 0
		for _, r := range nv {
			if r < '0' || r > '9' {
				return false
			}
			num = num*10 + int(r-'0')
			if num > rowNumberMax {
				return false
			}
		}
		if nv == "" {
			return false
		}
		if !seen[num] {
			seen[num] = true
			distinct++
		}
	}
	if distinct != len(b.Pairs) || distinct > rowNumberMax {
		return false
	}
	for i := 1; i <= distinct; i++ {
		if !seen[i] {
			return false
		}
	}
	return true
}

// rowNumberMax is the largest row number rowNumberColumn recognizes.
const rowNumberMax = 1000

// isNumeric reports whether the normalized value consists solely of digits,
// spaces and at most one decimal point per token.
func isNumeric(v string) bool {
	nv := textnorm.Normalize(v)
	if nv == "" {
		return false
	}
	digits := 0
	for _, r := range nv {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == ' ' || r == '.':
		default:
			return false
		}
	}
	return digits > 0
}
