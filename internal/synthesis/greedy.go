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

// GreedyCtx is Greedy with cooperative cancellation: the merge loop checks
// ctx every greedyCancelStride merges and returns ctx's error with a nil
// partitioning when cancelled. Output is unaffected by the checks.
func GreedyCtx(ctx context.Context, g *graph.Graph, tau float64) (Partitioning, error) {
	n := g.NumVertices()
	// parent implements union-find with path halving; the merge loop
	// chooses which root survives (the one with more positive neighbours),
	// so plain parent pointers beat union-by-rank here.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// pos[r][s] / neg[r][s]: aggregated weights between partition roots.
	// Invariant: for active roots r, keys of pos[r]/neg[r] are active roots
	// and the maps are symmetric.
	// The maps are sized by degree up front: growing them one insert at a
	// time was a third of the set-up cost.
	edges := g.Edges()
	posDeg, negDeg := make([]int, n), make([]int, n)
	for _, e := range edges {
		if e.Pos != 0 {
			posDeg[e.A]++
			posDeg[e.B]++
		}
		if e.Neg != 0 {
			negDeg[e.A]++
			negDeg[e.B]++
		}
	}
	pos := make([]map[int]float64, n)
	neg := make([]map[int]float64, n)
	for i := 0; i < n; i++ {
		pos[i] = make(map[int]float64, posDeg[i])
		neg[i] = make(map[int]float64, negDeg[i])
	}
	h := make(mergeHeap, 0, len(edges))
	for _, e := range edges {
		if e.Pos != 0 {
			pos[e.A][e.B] = e.Pos
			pos[e.B][e.A] = e.Pos
		}
		if e.Neg != 0 {
			neg[e.A][e.B] = e.Neg
			neg[e.B][e.A] = e.Neg
		}
		if e.Pos > 0 && e.Neg >= tau {
			h = append(h, mergeEntry{pos: e.Pos, a: e.A, b: e.B})
		}
	}
	h.init()

	iter := 0
	for len(h) > 0 {
		iter++
		if iter%greedyCancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		top := h.pop()
		ra, rb := find(top.a), find(top.b)
		if ra == rb {
			continue // already merged
		}
		cur, ok := pos[ra][rb]
		if !ok || math.Abs(cur-top.pos) > 1e-12 || top.pos <= 0 {
			continue // stale entry; a fresher one is in the heap
		}
		if nw, bad := neg[ra][rb]; bad && nw < tau {
			continue // hard constraint
		}
		// Merge the smaller positive adjacency into the larger. Counting
		// only positive neighbours keeps every decision local to the
		// positive component: the merge check, this choice and the
		// re-advertise loop read nothing but positively adjacent roots, so
		// greedy on the whole graph and greedy per positive component make
		// the same merges (Appendix F's divide and conquer is exact).
		keep, drop := ra, rb
		if len(pos[keep]) < len(pos[drop]) {
			keep, drop = drop, keep
		}
		parent[drop] = keep
		delete(pos[keep], drop)
		delete(neg[keep], drop)
		delete(pos[drop], keep)
		delete(neg[drop], keep)
		for nb, w := range pos[drop] {
			if find(nb) == keep {
				continue // defensive; invariant keeps keys as roots
			}
			pos[keep][nb] += w
			pos[nb][keep] = pos[keep][nb]
			delete(pos[nb], drop)
		}
		for nb, w := range neg[drop] {
			if find(nb) == keep {
				continue
			}
			if curN, exists := neg[keep][nb]; !exists || w < curN {
				neg[keep][nb] = w
				neg[nb][keep] = w
			}
			delete(neg[nb], drop)
		}
		pos[drop] = nil
		neg[drop] = nil
		// Re-advertise the merged partition's eligible edges.
		for nb, w := range pos[keep] {
			if w > 0 && neg[keep][nb] >= tau {
				a, b := keep, nb
				if a > b {
					a, b = b, a
				}
				h.push(mergeEntry{pos: w, a: a, b: b})
			}
		}
	}

	groups := make(map[int][]int)
	for v := 0; v < n; v++ {
		r := find(v)
		groups[r] = append(groups[r], v)
	}
	parts := make(Partitioning, 0, len(groups))
	for _, members := range groups {
		sort.Ints(members)
		parts = append(parts, members)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
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
