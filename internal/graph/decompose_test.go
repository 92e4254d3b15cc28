package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// subgraph extracts the induced subgraph over the given vertices by scanning
// every edge — the per-component path Decompose replaced, kept as its
// oracle. It returns the new graph (dense ids 0..len(vertices)-1, in the
// order given) and the mapping from new id to original id.
func subgraph(g *Graph, vertices []int) (*Graph, []int) {
	idx := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		idx[v] = i
		orig[i] = v
	}
	sub := New(len(vertices))
	for _, e := range g.Edges() {
		ia, oka := idx[e.A]
		ib, okb := idx[e.B]
		if oka && okb {
			sub.AddEdge(ia, ib, e.Pos, e.Neg)
		}
	}
	return sub, orig
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 2, 0.4, -0.1)
	g.AddEdge(2, 4, 0.6, 0)
	g.AddEdge(1, 3, 0.9, 0)
	sub, orig := subgraph(g, []int{0, 2, 4})
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph wrong: %d vertices %d edges", sub.NumVertices(), sub.NumEdges())
	}
	if orig[0] != 0 || orig[1] != 2 || orig[2] != 4 {
		t.Errorf("orig mapping = %v", orig)
	}
	e := sub.GetEdge(0, 1)
	if e == nil || e.Pos != 0.4 || e.Neg != -0.1 {
		t.Errorf("subgraph edge = %+v", e)
	}
}

func TestDecomposeEmptyGraph(t *testing.T) {
	if comps := New(0).Decompose(); len(comps) != 0 {
		t.Errorf("Decompose on empty graph = %v, want none", comps)
	}
}

func TestDecomposeSingleComponent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0.5, 0)
	g.AddEdge(1, 2, 0.4, -0.1)
	g.AddEdge(2, 3, 0, -0.9) // negative-only edges still connect
	comps := g.Decompose()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	c := comps[0]
	if !reflect.DeepEqual(c.Vertices, []int{0, 1, 2, 3}) {
		t.Errorf("Vertices = %v", c.Vertices)
	}
	if c.Sub.NumVertices() != 4 || c.Sub.NumEdges() != 3 {
		t.Errorf("subgraph: %d vertices %d edges", c.Sub.NumVertices(), c.Sub.NumEdges())
	}
	if e := c.Sub.GetEdge(1, 2); e == nil || e.Pos != 0.4 || e.Neg != -0.1 {
		t.Errorf("edge weights not carried over: %+v", e)
	}
}

func TestDecomposeManySingletons(t *testing.T) {
	g := New(50)
	comps := g.Decompose()
	if len(comps) != 50 {
		t.Fatalf("components = %d, want 50 singletons", len(comps))
	}
	for i, c := range comps {
		if len(c.Vertices) != 1 || c.Vertices[0] != i {
			t.Fatalf("component %d = %v, want singleton {%d}", i, c.Vertices, i)
		}
		if c.Sub.NumVertices() != 1 || c.Sub.NumEdges() != 0 {
			t.Fatalf("singleton subgraph %d has %d vertices %d edges",
				i, c.Sub.NumVertices(), c.Sub.NumEdges())
		}
	}
}

// TestDecomposeMatchesSubgraph is a property test: Decompose must agree
// with the reference path bfsComponents + subgraph on random graphs,
// edge for edge and in the same (sorted) order.
func TestDecomposeMatchesSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 1+rng.Intn(40))
		comps := g.Decompose()
		want := bfsComponents(g)
		if len(comps) != len(want) {
			t.Fatalf("trial %d: %d components, want %d", trial, len(comps), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(comps[i].Vertices, want[i]) {
				t.Fatalf("trial %d: component %d vertices %v, want %v",
					trial, i, comps[i].Vertices, want[i])
			}
			refSub, _ := subgraph(g, want[i])
			if got, ref := comps[i].Sub.Edges(), refSub.Edges(); len(got)+len(ref) > 0 && !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d: component %d edges %v, want %v", trial, i, got, ref)
			}
		}
	}
}

// TestDecomposeSubgraphsAreIndependent: the components share one backing
// array, so growing one must not reach into the next.
func TestDecomposeSubgraphsAreIndependent(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 0.5, 0)
	g.AddEdge(1, 2, 0.5, 0)
	g.AddEdge(3, 4, 0.7, 0)
	g.AddEdge(4, 5, 0.7, 0)
	comps := g.Decompose()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	comps[0].Sub.AddEdge(0, 2, 0.9, 0)
	if comps[0].Sub.NumEdges() != 3 {
		t.Errorf("first component has %d edges after AddEdge, want 3", comps[0].Sub.NumEdges())
	}
	want := []Edge{{0, 1, 0.7, 0}, {1, 2, 0.7, 0}}
	if got := comps[1].Sub.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("second component's edges changed: %v, want %v", got, want)
	}
}
