package synthesis

import (
	"sort"

	"mapsynth/internal/graph"
)

// MinCutSingleNegative solves Problem 11 exactly when the graph has exactly
// one negative edge below tau (the easy case of the paper's trichotomy): the
// two endpoints of the negative edge become source and sink of a max-flow /
// min-cut instance over the positive weights, and the optimal partitioning
// is the two sides of the minimum cut. Vertices with no positive path to
// either side go with the source side of the residual reachability.
//
// It returns (partitioning, true) on success, or (nil, false) when the graph
// does not have exactly one negative edge below tau.
func MinCutSingleNegative(g *graph.Graph, tau float64) (Partitioning, bool) {
	var negEdge *graph.Edge
	edges := g.Edges()
	for i := range edges {
		if edges[i].Neg < tau {
			if negEdge != nil {
				return nil, false
			}
			negEdge = &edges[i]
		}
	}
	if negEdge == nil {
		return nil, false
	}
	n := g.NumVertices()
	// Build a capacity matrix over positive weights. Scaling to integers is
	// unnecessary: Edmonds–Karp with float64 capacities terminates because
	// each augmentation saturates at least one edge and the path count is
	// bounded by O(VE) iterations.
	cap := make([][]float64, n)
	for i := range cap {
		cap[i] = make([]float64, n)
	}
	for _, e := range edges {
		if e.Pos > 0 {
			cap[e.A][e.B] += e.Pos
			cap[e.B][e.A] += e.Pos
		}
	}
	s, t := negEdge.A, negEdge.B
	// Edmonds–Karp.
	const eps = 1e-12
	for {
		parent := bfsAugmenting(cap, s, t, eps)
		if parent == nil {
			break
		}
		// Find bottleneck.
		bott := 1e308
		for v := t; v != s; v = parent[v] {
			u := parent[v]
			if cap[u][v] < bott {
				bott = cap[u][v]
			}
		}
		for v := t; v != s; v = parent[v] {
			u := parent[v]
			cap[u][v] -= bott
			cap[v][u] += bott
		}
	}
	// Source side = residual-reachable from s.
	side := make([]bool, n)
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < n; v++ {
			if !side[v] && cap[u][v] > eps {
				side[v] = true
				stack = append(stack, v)
			}
		}
	}
	var a, b []int
	for v := 0; v < n; v++ {
		if side[v] {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	sort.Ints(a)
	sort.Ints(b)
	parts := Partitioning{a, b}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	return parts, true
}

// bfsAugmenting finds a shortest augmenting path from s to t in the residual
// network, returning the parent array, or nil if t is unreachable.
func bfsAugmenting(cap [][]float64, s, t int, eps float64) []int {
	n := len(cap)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[s] = s
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			if parent[v] == -1 && cap[u][v] > eps {
				parent[v] = u
				if v == t {
					return parent
				}
				queue = append(queue, v)
			}
		}
	}
	return nil
}
