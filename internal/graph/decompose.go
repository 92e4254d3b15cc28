package graph

// Component is one connected component of a Graph, materialized as an
// induced subgraph ready for independent processing. Sub uses dense vertex
// ids 0..len(Vertices)-1; Vertices[i] is the original id of Sub's vertex i,
// ascending, so Vertices[0] is the component's smallest original vertex.
type Component struct {
	Vertices []int
	Sub      *Graph
}

// Decompose partitions the graph into its connected components and builds
// every induced subgraph in a single counting-sort pass over the edge list —
// O(V + E) total, into one backing array. Components are sorted by smallest
// original vertex, and within a component vertex order is ascending,
// matching ConnectedComponents. Dense ids ascend with original ids, so each
// component's slice of the (A, B)-sorted edge list is itself sorted.
//
// Components are independent by construction (no edge crosses them), which
// is what lets the pipeline engine run synthesis and conflict resolution
// per component in parallel with results identical to a monolithic pass.
func (g *Graph) Decompose() []Component {
	edges := g.settled()
	comps, compOf := g.components()
	denseID := make([]int, g.n)
	for _, comp := range comps {
		for di, v := range comp {
			denseID[v] = di
		}
	}
	// start[c] is where component c's edges begin in the backing array;
	// e.B is in e.A's component by definition.
	start := make([]int, len(comps)+1)
	for _, e := range edges {
		start[compOf[e.A]+1]++
	}
	for c := range comps {
		start[c+1] += start[c]
	}
	backing := make([]Edge, len(edges))
	next := append([]int(nil), start[:len(comps)]...)
	for _, e := range edges {
		c := compOf[e.A]
		backing[next[c]] = Edge{A: denseID[e.A], B: denseID[e.B], Pos: e.Pos, Neg: e.Neg}
		next[c]++
	}
	subs := make([]Graph, len(comps))
	out := make([]Component, len(comps))
	for c, comp := range comps {
		// Capacity is clipped so an AddEdge on one subgraph cannot write
		// into its neighbour's edges.
		subs[c] = Graph{n: len(comp), edges: backing[start[c]:start[c+1]:start[c+1]]}
		out[c] = Component{Vertices: comp, Sub: &subs[c]}
	}
	return out
}
