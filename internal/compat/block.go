package compat

import (
	"context"
	"math/bits"
	"slices"
	"sync"

	"mapsynth/internal/graph"
	"mapsynth/internal/pool"
	"mapsynth/internal/unionfind"
)

// MaxPostingLen caps the inverted-index posting lists considered during
// blocking. Keys appearing in more candidates than this behave like
// stop-words and would produce a quadratic pair blow-up; they are skipped
// and counted in BlockStats. (Pairs of truly related tables share several
// less common keys and are still found through those.)
const MaxPostingLen = 800

// CapStats counts what the MaxPostingLen cap dropped from one blocking pass:
// how many keys had a posting list longer than the cap, and how many pair
// increments — len·(len−1)/2 per skipped key — went uncounted because of it.
type CapStats struct {
	KeysSkipped       int
	IncrementsSkipped int
}

// BlockStats is the cap's toll on the two passes: pair keys (blocking for
// w+) and left keys (blocking for w-).
type BlockStats struct {
	Pair, Left CapStats
}

// postings is an inverted index over dense key ids in CSR form: the
// candidates holding key k are ids[off[k]:off[k+1]], ascending.
type postings struct {
	off []int32
	ids []int32
}

// buildPostings inverts keysOf over the candidate set and counts what the
// MaxPostingLen cap will skip.
func buildPostings(cands []*Candidate, keysOf func(*Candidate) []uint32) (p postings, capped CapStats) {
	numKeys := 0
	for _, c := range cands {
		if ks := keysOf(c); len(ks) > 0 {
			numKeys = max(numKeys, int(ks[len(ks)-1])+1) // ascending: the last is the largest
		}
	}
	p.off = make([]int32, numKeys+1)
	total := 0
	for _, c := range cands {
		for _, k := range keysOf(c) {
			p.off[k+1]++
		}
		total += len(keysOf(c))
	}
	for k := 0; k < numKeys; k++ {
		if n := int(p.off[k+1]); n > MaxPostingLen {
			capped.KeysSkipped++
			capped.IncrementsSkipped += n * (n - 1) / 2
		}
		p.off[k+1] += p.off[k]
	}
	p.ids = make([]int32, total)
	next := slices.Clone(p.off[:numKeys])
	for ci, c := range cands { // in candidate order, so every list ascends
		for _, k := range keysOf(c) {
			p.ids[next[k]] = int32(ci)
			next[k]++
		}
	}
	return p, capped
}

// blocker runs inverted-index blocking (the paper's Map-Reduce regrouping)
// one candidate row at a time.
type blocker struct {
	cands      []*Candidate
	theta      int32
	pair, left postings
	stats      BlockStats
}

func newBlocker(cands []*Candidate, thetaOverlap int) *blocker {
	bl := &blocker{cands: cands, theta: int32(max(thetaOverlap, 1))}
	bl.pair, bl.stats.Pair = buildPostings(cands, func(c *Candidate) []uint32 { return c.PairIDs })
	bl.left, bl.stats.Left = buildPostings(cands, func(c *Candidate) []uint32 { return c.LeftIDs })
	return bl
}

// partner is a later candidate that shares enough keys with the row's
// candidate to be scored: at least theta pair keys (pos), at least theta
// left keys (neg), or both.
type partner struct {
	b        int32
	pos, neg bool
}

// rowScratch is one worker's reusable state for processing candidate rows.
// The counters are indexed by candidate, set holds one bit per candidate,
// and both are all zero between rows.
type rowScratch struct {
	posCount, negCount []int32
	set                []uint64
	touched            []int32
	partners           []partner
	entries            []rowEntry
	edges              []graph.Edge
	match              matchScratch
}

func newRowScratch(n int) *rowScratch {
	return &rowScratch{posCount: make([]int32, n), negCount: make([]int32, n), set: make([]uint64, (n+63)/64)}
}

// sparseSpan is how many bitmap words per touched candidate make a row's
// touched set sparse in its span: beyond it, sorting the set is cheaper
// than sweeping the words.
const sparseSpan = 4

// sortTouched puts the row's touched candidates in ascending order. A set
// dense in its span [lo, hi] is read back in order from a bitmap over the
// words of that span; a sparse one is sorted, so a row's cost never scales
// with the number of candidates.
func (sc *rowScratch) sortTouched() {
	t := sc.touched
	if len(t) < 2 {
		return
	}
	lo, hi := t[0], t[0]
	for _, b := range t[1:] {
		lo, hi = min(lo, b), max(hi, b)
	}
	w0 := int(lo >> 6)
	span := sc.set[w0 : hi>>6+1]
	if len(span) > sparseSpan*len(t) {
		slices.Sort(t)
		return
	}
	for _, b := range t {
		span[int(b>>6)-w0] |= 1 << (b & 63)
	}
	t = t[:0]
	for i, w := range span {
		base := int32(w0+i) << 6
		for ; w != 0; w &= w - 1 {
			t = append(t, base+int32(bits.TrailingZeros64(w)))
		}
		span[i] = 0
	}
}

// row is ScanCount for candidate a: it walks the posting lists of a's keys,
// counts per later candidate b > a how many keys they share, and returns the
// partners reaching theta, ascending in b.
func (bl *blocker) row(a int, sc *rowScratch) []partner {
	c := bl.cands[a]
	sc.touched = sc.touched[:0]
	bl.pair.scan(int32(a), c.PairIDs, sc.posCount, sc.negCount, &sc.touched)
	bl.left.scan(int32(a), c.LeftIDs, sc.negCount, sc.posCount, &sc.touched)
	sc.sortTouched()
	sc.partners = sc.partners[:0]
	for _, b := range sc.touched {
		pt := partner{b: b, pos: sc.posCount[b] >= bl.theta, neg: sc.negCount[b] >= bl.theta}
		sc.posCount[b], sc.negCount[b] = 0, 0
		if pt.pos || pt.neg {
			sc.partners = append(sc.partners, pt)
		}
	}
	return sc.partners
}

// scan bumps count[b] for every candidate b > a in the posting list of each
// key, recording in touched the candidates seen for the first time in this
// row (by either pass: other is the other pass's counter).
func (p *postings) scan(a int32, keys []uint32, count, other []int32, touched *[]int32) {
	for _, k := range keys {
		list := p.ids[p.off[k]:p.off[k+1]]
		if len(list) > MaxPostingLen {
			continue
		}
		for i := len(list) - 1; i >= 0 && list[i] > a; i-- {
			b := list[i]
			if count[b] == 0 && other[b] == 0 {
				*touched = append(*touched, b)
			}
			count[b]++
		}
	}
}

// BlockedPairs runs blocking alone and returns the candidate pairs that
// share at least thetaOverlap normalized value pairs (posPairs) and at least
// thetaOverlap normalized left values (negPairs), both sorted.
func BlockedPairs(cands []*Candidate, thetaOverlap int) (posPairs, negPairs [][2]int) {
	bl := newBlocker(cands, thetaOverlap)
	sc := newRowScratch(len(cands))
	for a := range cands {
		for _, pt := range bl.row(a, sc) {
			if pt.pos {
				posPairs = append(posPairs, [2]int{a, int(pt.b)})
			}
			if pt.neg {
				negPairs = append(negPairs, [2]int{a, int(pt.b)})
			}
		}
	}
	return posPairs, negPairs
}

// BuildGraph computes the compatibility graph for a candidate set:
// blocking, then evaluation of w+ over pos-blocked pairs and w- over
// neg-blocked pairs. Positive weights below opt.ThetaEdge are dropped
// (treated as 0); negative weights of 0 produce no negative component.
// Edges that end up with both weights zero are omitted, and so is every
// pair outside a positive component (see the package doc): the graph's
// connected components are its positive components.
func BuildGraph(cands []*Candidate, opt Options, workers int) *graph.Graph {
	g, _, _ := BuildGraphCtx(context.Background(), cands, opt, pool.New(workers))
	return g
}

// BuildGraphCtx is BuildGraph running on a caller-supplied worker pool with
// cancellation. Blocking and w+ scoring are fused: the pool iterates over
// candidate rows, and a row blocks its candidate against all later ones and
// scores the surviving pairs at once. A union-find over the w+ edges then
// finds the positive components, and a second pass over the rows scores w-
// for the neg-blocked pairs inside one. When ctx is cancelled — before the
// call or during it — no further row is started and ctx's error is returned
// with a nil graph.
func BuildGraphCtx(ctx context.Context, cands []*Candidate, opt Options, p *pool.Pool) (*graph.Graph, BlockStats, error) {
	return buildGraph(ctx, cands, opt, p, nil)
}

// rowEntry is one pair of a candidate row between the two passes: the
// later candidate b, its w+ (0 when not pos-blocked or below θedge) and
// whether it is neg-blocked with w- still to score. The rows are at their
// largest between the passes, so an entry is half a graph.Edge.
type rowEntry struct {
	b   int32
	neg bool
	pos float64
}

// buildGraph is BuildGraphCtx with a seam for tests: onRow, when non-nil,
// is called as each candidate row starts its first pass.
func buildGraph(ctx context.Context, cands []*Candidate, opt Options, p *pool.Pool, onRow func(a int)) (*graph.Graph, BlockStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, BlockStats{}, err
	}
	cp := NewComputer(opt)
	bl := newBlocker(cands, opt.ThetaOverlap)
	scratch := sync.Pool{New: func() any { return newRowScratch(len(cands)) }}

	// Pass 1: block and score w+. A row holds its pairs ascending in b, so
	// the rows concatenated in order are the edge list sorted by (A, B):
	// nothing to merge or sort. Neg-blocked pairs ride along in the same
	// row as pending entries, with or without a w+; under DisableNegative
	// none is pending.
	rows := make([][]rowEntry, len(cands))
	if err := p.ForEach(ctx, len(cands), func(a int) {
		if onRow != nil {
			onRow(a)
		}
		sc := scratch.Get().(*rowScratch)
		defer scratch.Put(sc)
		sc.entries = sc.entries[:0]
		for _, pt := range bl.row(a, sc) {
			en := rowEntry{b: pt.b, neg: pt.neg && !opt.DisableNegative}
			if pt.pos {
				if pw := cp.positive(cands[a], cands[pt.b], &sc.match); pw >= opt.ThetaEdge {
					en.pos = pw
				}
			}
			if en.pos != 0 || en.neg {
				sc.entries = append(sc.entries, en)
			}
		}
		rows[a] = slices.Clone(sc.entries)
	}); err != nil {
		return nil, BlockStats{}, err
	}

	// The positive components, as one root per candidate: the second pass
	// reads them from every worker, so no Find runs concurrently.
	uf := unionfind.New(len(cands))
	for a, r := range rows {
		for _, en := range r {
			if en.pos > 0 {
				uf.Union(a, int(en.b))
			}
		}
	}
	root := make([]int32, len(cands))
	for v := range root {
		root[v] = int32(uf.Find(v))
	}

	// Pass 2: score w- where it can bind and turn each row into its edges,
	// dropping the pending entries outside a positive component. An entry
	// with w+ > 0 is inside one by construction.
	edgeRows := make([][]graph.Edge, len(cands))
	if err := p.ForEach(ctx, len(cands), func(a int) {
		sc := scratch.Get().(*rowScratch)
		defer scratch.Put(sc)
		sc.edges = sc.edges[:0]
		for _, en := range rows[a] {
			e := graph.Edge{A: a, B: int(en.b), Pos: en.pos}
			if en.neg && root[a] == root[en.b] {
				e.Neg = cp.Negative(cands[a], cands[en.b])
			}
			if e.Pos != 0 || e.Neg != 0 {
				sc.edges = append(sc.edges, e)
			}
		}
		rows[a] = nil
		edgeRows[a] = slices.Clone(sc.edges)
	}); err != nil {
		return nil, BlockStats{}, err
	}
	total := 0
	for _, r := range edgeRows {
		total += len(r)
	}
	edges := make([]graph.Edge, 0, total)
	for _, r := range edgeRows {
		edges = append(edges, r...)
	}
	return graph.FromSortedEdges(len(cands), edges), bl.stats, nil
}
