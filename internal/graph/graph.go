// Package graph models the compatibility graph over candidate binary tables
// (Section 4.2) and splits it into connected components (Appendix F; on a
// graph from compat.BuildGraph those are its positive components).
//
// A Graph is a vertex count plus one flat edge list sorted by (A, B). The
// compatibility builder produces its edges already in that order and hands
// them over whole (FromSortedEdges); Decompose counting-sorts them into one
// backing array shared by all components. Nothing in the package hashes or
// allocates per edge.
package graph

import (
	"sort"

	"mapsynth/internal/unionfind"
)

// Edge is one weighted edge of the compatibility graph. Pos carries the
// positive compatibility w+ (Equation 3) and Neg the negative
// incompatibility w- (Equation 4, a value <= 0). Either may be zero.
type Edge struct {
	A, B int // vertex ids with A < B
	Pos  float64
	Neg  float64
}

// Graph is an undirected weighted graph over dense vertex ids [0, N).
// Parallel edges are not allowed: adding an edge twice keeps the later
// weights.
//
// Edges added with AddEdge are sorted and de-duplicated on the first read
// after them, so a Graph must not be read from several goroutines until one
// read has completed; graphs from FromSortedEdges and Decompose are born
// sorted and are safe for concurrent readers.
type Graph struct {
	n     int
	edges []Edge // sorted by (A, B) and duplicate-free unless dirty
	dirty bool   // AddEdge appended since the last read
}

// New returns an empty graph over n vertices.
func New(n int) *Graph { return &Graph{n: n} }

// FromSortedEdges returns the graph over n vertices with the given edges,
// which must have A < B and be strictly ascending by (A, B). The slice is
// not copied: the graph owns it from here on.
func FromSortedEdges(n int, edges []Edge) *Graph {
	return &Graph{n: n, edges: edges}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of stored edges.
func (g *Graph) NumEdges() int { return len(g.settled()) }

func less(a, b Edge) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// AddEdge inserts or overwrites the edge between a and b with the given
// weights. Self-loops are ignored.
func (g *Graph) AddEdge(a, b int, pos, neg float64) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	g.edges = append(g.edges, Edge{A: a, B: b, Pos: pos, Neg: neg})
	g.dirty = true
}

// settled returns the edge list sorted by (A, B) with one entry per vertex
// pair, the last one added winning.
func (g *Graph) settled() []Edge {
	if !g.dirty {
		return g.edges
	}
	es := g.edges
	sort.SliceStable(es, func(i, j int) bool { return less(es[i], es[j]) })
	out := es[:0]
	for i, e := range es {
		if i+1 < len(es) && es[i+1].A == e.A && es[i+1].B == e.B {
			continue // a later AddEdge overwrote this one
		}
		out = append(out, e)
	}
	g.edges, g.dirty = out, false
	return out
}

// GetEdge returns the edge between a and b, or nil. The pointer aliases the
// graph's storage and is invalidated by the next AddEdge.
func (g *Graph) GetEdge(a, b int) *Edge {
	if a > b {
		a, b = b, a
	}
	es := g.settled()
	i := sort.Search(len(es), func(i int) bool { return !less(es[i], Edge{A: a, B: b}) })
	if i < len(es) && es[i].A == a && es[i].B == b {
		return &es[i]
	}
	return nil
}

// Edges returns all edges sorted by (A, B). The slice is the graph's own:
// callers must not modify it.
func (g *Graph) Edges() []Edge { return g.settled() }

// components returns the connected components, ordered by smallest vertex
// with members ascending, and each vertex's component index. All member
// lists share one backing array.
func (g *Graph) components() (comps [][]int, compOf []int) {
	uf := unionfind.New(g.n)
	for _, e := range g.settled() {
		uf.Union(e.A, e.B)
	}
	// Scanning vertices in ascending order meets every component at its
	// smallest vertex first, so numbering components at first sight orders
	// them by that vertex, and filling in the same order sorts the members.
	compOf = make([]int, g.n)
	rootComp := make([]int, g.n) // root -> component index + 1
	var sizes []int
	for v := 0; v < g.n; v++ {
		r := uf.Find(v)
		if rootComp[r] == 0 {
			sizes = append(sizes, 0)
			rootComp[r] = len(sizes)
		}
		compOf[v] = rootComp[r] - 1
		sizes[compOf[v]]++
	}
	members := make([]int, g.n)
	comps = make([][]int, len(sizes))
	off := 0
	for ci, sz := range sizes {
		comps[ci] = members[off : off : off+sz]
		off += sz
	}
	for v, ci := range compOf {
		comps[ci] = append(comps[ci], v)
	}
	return comps, compOf
}
