// Package synthesis partitions the compatibility graph into synthesized
// relationships (Problem 11 of the paper): maximize the sum of positive
// intra-partition compatibility subject to the hard constraint that no
// partition contains a negative edge below τ.
//
// The problem is NP-hard in general (reduction from multi-cut, Theorem 13)
// with a trichotomy in the number of negative edges: 1 negative edge reduces
// to min-cut/max-flow, 2 stay polynomial, >= 3 are NP-hard. This package
// provides:
//
//   - Greedy: the paper's production algorithm (Algorithm 3) — iterative
//     agglomerative merging of the most compatible partition pair, with a
//     lazy max-heap and union-find-style bookkeeping.
//   - Exact: exponential search for small graphs, used by tests and the
//     ablation bench to measure the greedy gap.
//   - MinCutSingleNegative: the max-flow special case for one negative edge.
package synthesis

import (
	"context"
	"math"
	"sort"
	"sync"

	"mapsynth/internal/graph"
)

// DefaultTau is the negative-edge hard-constraint threshold τ used in the
// paper's experiments (−0.2; §5.4 reports peak quality near −0.05 and good
// quality at −0.2).
const DefaultTau = -0.2

// Partitioning is the result of synthesis: disjoint vertex groups covering
// the graph. Groups are sorted by their smallest member; members ascending.
type Partitioning [][]int

// Objective computes the Problem-11 objective of a partitioning on g: the
// sum of positive edge weights whose endpoints share a partition.
func Objective(g *graph.Graph, parts Partitioning) float64 {
	group := make(map[int]int)
	for gi, p := range parts {
		for _, v := range p {
			group[v] = gi
		}
	}
	var sum float64
	for _, e := range g.Edges() {
		if group[e.A] == group[e.B] {
			sum += e.Pos
		}
	}
	return sum
}

// Feasible reports whether no partition contains an edge with negative
// weight below tau (Constraint 6).
func Feasible(g *graph.Graph, parts Partitioning, tau float64) bool {
	group := make(map[int]int)
	for gi, p := range parts {
		for _, v := range p {
			group[v] = gi
		}
	}
	for _, e := range g.Edges() {
		if e.Neg < tau && group[e.A] == group[e.B] {
			return false
		}
	}
	return true
}

// mergeEntry is one candidate merge in the lazy priority queue.
type mergeEntry struct {
	pos  float64
	a, b int // partition roots at push time, a < b
}

// before orders merges for the queue: heavier first, then by partition ids
// so the order is total and the merge sequence deterministic.
func (e mergeEntry) before(o mergeEntry) bool {
	if e.pos != o.pos {
		return e.pos > o.pos
	}
	if e.a != o.a {
		return e.a < o.a
	}
	return e.b < o.b
}

// mergeHeap is a binary max-heap of mergeEntry under before. (A typed heap:
// container/heap boxes every entry it is handed, and the merge loop pops
// one per edge.)
type mergeHeap []mergeEntry

// init establishes the heap order over entries appended directly.
func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *mergeHeap) push(e mergeEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *mergeHeap) pop() mergeEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

func (h mergeHeap) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// Greedy runs Algorithm 3: start with singleton partitions; repeatedly merge
// the pair of partitions with the greatest aggregated positive weight whose
// aggregated negative weight is not below tau; stop when no eligible pair
// with positive weight remains.
//
// Aggregation on merge follows Appendix E: positive weights add
// (w+(Pi,P') = w+(Pi,P1) + w+(Pi,P2)), negative weights take the minimum
// (most negative dominates). Stale heap entries are discarded lazily by
// checking them against the current aggregated weight.
func Greedy(g *graph.Graph, tau float64) Partitioning {
	parts, _ := GreedyCtx(context.Background(), g, tau)
	return parts
}

// greedyCancelStride bounds how many merges run between cancellation checks
// in GreedyCtx — frequent enough for prompt Ctrl-C, rare enough to stay off
// the merge loop's profile.
const greedyCancelStride = 1024

// pairWeights is the aggregated weight between two partition roots lo < hi,
// one slot of a pairTable. A weight's has flag tells an absent weight from
// a zero one.
type pairWeights struct {
	key            uint64 // lo<<32 | hi; 0 marks an empty slot (lo < hi, so no pair keys to 0)
	pos, neg       float64
	hasPos, hasNeg bool
}

// pairTable holds the weights of every pair of adjacent partition roots,
// each pair once: an open-addressing hash table with linear probing and
// deletion by backward shift, so no tombstones. A merge deletes at least as
// many pairs as it creates, so the table never holds more pairs than the
// graph has edges and never grows.
type pairTable struct {
	slots []pairWeights
	mask  uint64
}

func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// reset empties the table and sizes it for n pairs, reusing its slots.
func (t *pairTable) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(t.slots) < size {
		t.slots = make([]pairWeights, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.mask = uint64(size - 1)
}

func (t *pairTable) home(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> 32 & t.mask }

// get returns the weights of the pair a, b, or nil.
func (t *pairTable) get(a, b int) *pairWeights {
	key := pairKey(a, b)
	for i := t.home(key); ; i = (i + 1) & t.mask {
		switch t.slots[i].key {
		case key:
			return &t.slots[i]
		case 0:
			return nil
		}
	}
}

// upsert returns the weights of the pair a, b, adding an empty entry when
// there is none; added says which.
func (t *pairTable) upsert(a, b int) (w *pairWeights, added bool) {
	key := pairKey(a, b)
	for i := t.home(key); ; i = (i + 1) & t.mask {
		switch t.slots[i].key {
		case key:
			return &t.slots[i], false
		case 0:
			t.slots[i] = pairWeights{key: key}
			return &t.slots[i], true
		}
	}
}

// remove deletes the pair a, b, shifting later entries of its probe run
// back into the hole. Pointers from get and upsert are invalid after it.
func (t *pairTable) remove(a, b int) {
	key := pairKey(a, b)
	i := t.home(key)
	for t.slots[i].key != key {
		if t.slots[i].key == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.slots[j].key != 0; j = (j + 1) & t.mask {
		// Move j into the hole at i unless its home lies cyclically in
		// (i, j]: then it must stay at or after its home.
		if h := t.home(t.slots[j].key); (j-h)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pairWeights{}
}

// greedyScratch is one GreedyCtx call's working memory, reused across
// calls through greedyPool so per-component greedy allocates little beyond
// its result.
type greedyScratch struct {
	pairs        pairTable
	parent       []int32
	posDeg       []int32 // per root: how many roots it has a w+ entry with
	adjOff       []int32
	adjBuf       []int32
	adj          [][]int32 // per root: vertices whose roots it may be adjacent to
	seen         []int32   // per root: the merge-loop iteration (from 1) that last listed it
	changed, nbs []int32
	heap         mergeHeap
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// grow returns s resized to n elements, all zero.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// GreedyCtx is Greedy with cooperative cancellation: the merge loop checks
// ctx every greedyCancelStride merges and returns ctx's error with a nil
// partitioning when cancelled. Output is unaffected by the checks.
//
// The aggregated weights live in one pairTable, each pair of roots once,
// and every root keeps a list of vertices whose roots it may be adjacent to:
// entries go stale as partitions merge and are resolved through union-find
// when the root is absorbed. That is the only time a root's list is read.
func GreedyCtx(ctx context.Context, g *graph.Graph, tau float64) (Partitioning, error) {
	n := g.NumVertices()
	sc := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(sc)
	// parent implements union-find with path halving; the merge loop
	// chooses which root survives (the one with more positive neighbours),
	// so plain parent pointers beat union-by-rank here.
	parent := grow(sc.parent, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	edges := g.Edges()
	pairs := &sc.pairs
	pairs.reset(len(edges))
	posDeg, seen := grow(sc.posDeg, n), grow(sc.seen, n)
	adjOff := grow(sc.adjOff, n+1)
	for _, e := range edges {
		if e.Pos != 0 || e.Neg != 0 {
			adjOff[e.A+1]++
			adjOff[e.B+1]++
		}
	}
	for v := 0; v < n; v++ {
		adjOff[v+1] += adjOff[v]
	}
	adjBuf := grow(sc.adjBuf, int(adjOff[n]))
	adj := grow(sc.adj, n)
	for v := range adj {
		adj[v] = adjBuf[adjOff[v]:adjOff[v]:adjOff[v+1]]
	}
	h := sc.heap[:0]
	for _, e := range edges {
		if e.Pos == 0 && e.Neg == 0 {
			continue
		}
		w, _ := pairs.upsert(e.A, e.B)
		if e.Pos != 0 {
			w.pos, w.hasPos = e.Pos, true
			posDeg[e.A]++
			posDeg[e.B]++
		}
		if e.Neg != 0 {
			w.neg, w.hasNeg = e.Neg, true
		}
		adj[e.A] = append(adj[e.A], int32(e.B))
		adj[e.B] = append(adj[e.B], int32(e.A))
		if e.Pos > 0 && e.Neg >= tau {
			h = append(h, mergeEntry{pos: e.Pos, a: e.A, b: e.B})
		}
	}
	h.init()
	changed, nbs := sc.changed[:0], sc.nbs[:0]
	defer func() {
		sc.parent, sc.posDeg, sc.adjOff, sc.adjBuf, sc.adj, sc.seen, sc.changed, sc.nbs, sc.heap = parent, posDeg, adjOff, adjBuf, adj, seen, changed, nbs, h
	}()

	for iter := int32(1); len(h) > 0; iter++ {
		if iter%greedyCancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		top := h.pop()
		ra, rb := find(int32(top.a)), find(int32(top.b))
		if ra == rb {
			continue // already merged
		}
		w := pairs.get(int(ra), int(rb))
		if w == nil || !w.hasPos || math.Abs(w.pos-top.pos) > 1e-12 || top.pos <= 0 {
			continue // stale entry; a fresher one is in the heap
		}
		if w.hasNeg && w.neg < tau {
			continue // hard constraint
		}
		// Merge the smaller positive adjacency into the larger. Counting
		// only positive neighbours keeps every decision local to the
		// positive component: the merge check, this choice and the
		// re-advertise loop read nothing but positively adjacent roots, so
		// greedy on the whole graph and greedy per positive component make
		// the same merges (Appendix F's divide and conquer is exact).
		keep, drop := ra, rb
		if posDeg[keep] < posDeg[drop] {
			keep, drop = drop, keep
		}
		parent[drop] = keep
		pairs.remove(int(keep), int(drop))
		posDeg[keep]--
		// The absorbed root's neighbours, each once.
		nbs = nbs[:0]
		for _, x := range adj[drop] {
			if nb := find(x); nb != keep && seen[nb] != iter {
				seen[nb] = iter
				nbs = append(nbs, nb)
			}
		}
		adj[drop] = nil
		changed = changed[:0]
		for _, nb := range nbs {
			from := *pairs.get(int(drop), int(nb))
			pairs.remove(int(drop), int(nb))
			to, added := pairs.upsert(int(keep), int(nb))
			if added {
				adj[keep] = append(adj[keep], nb)
			}
			if from.hasPos {
				if to.hasPos {
					posDeg[nb]-- // drop and keep are one neighbour now
				} else {
					posDeg[keep]++
				}
				to.pos += from.pos
				to.hasPos = true
				changed = append(changed, nb)
			}
			if from.hasNeg && (!to.hasNeg || from.neg < to.neg) {
				to.neg, to.hasNeg = from.neg, true
			}
		}
		// Re-advertise the merged partition's eligible edges whose weight
		// changed: those to the absorbed root's positive neighbours. Every
		// other edge of keep kept its weight and its entry in the heap,
		// and w- only falls, so none became eligible.
		for _, nb := range changed {
			w := pairs.get(int(keep), int(nb))
			if w.pos > 0 && w.neg >= tau { // an absent w- reads 0
				h.push(mergeEntry{pos: w.pos, a: int(min(keep, nb)), b: int(max(keep, nb))})
			}
		}
	}

	// Scanning vertices upward meets each partition at its smallest member
	// first, so the partitions come out sorted by it, members ascending.
	// seen is free again: it maps a root to its partition's index plus one.
	seen = grow(seen, n)
	var parts Partitioning
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if seen[r] == 0 {
			parts = append(parts, nil)
			seen[r] = int32(len(parts))
		}
		parts[seen[r]-1] = append(parts[seen[r]-1], v)
	}
	return parts, nil
}

// GreedyComponent runs Greedy on one materialized component and maps the
// resulting partitions back to original vertex ids.
func GreedyComponent(ctx context.Context, c graph.Component, tau float64) (Partitioning, error) {
	if len(c.Vertices) == 1 {
		return Partitioning{c.Vertices}, nil
	}
	sp, err := GreedyCtx(ctx, c.Sub, tau)
	if err != nil {
		return nil, err
	}
	parts := make(Partitioning, len(sp))
	for pi, p := range sp {
		mapped := make([]int, len(p))
		for i, v := range p {
			mapped[i] = c.Vertices[v]
		}
		sort.Ints(mapped)
		parts[pi] = mapped
	}
	return parts, nil
}

// GreedyPerComponent applies Greedy independently to every connected
// component of g (the paper's divide-and-conquer, Appendix F). Results are
// identical to Greedy on the whole graph — merges never cross components —
// but bookkeeping stays small per component. It holds as well for positive
// components with the edges between them dropped, which is what the
// compatibility graph's components are.
func GreedyPerComponent(g *graph.Graph, tau float64) Partitioning {
	var parts Partitioning
	for _, c := range g.Decompose() {
		sp, _ := GreedyComponent(context.Background(), c, tau)
		parts = append(parts, sp...)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	return parts
}
