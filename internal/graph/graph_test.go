package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0.5, 0)
	g.AddEdge(1, 0, 0.7, -0.1) // overwrite, normalized order
	g.AddEdge(2, 3, 0.2, 0)
	g.AddEdge(1, 1, 9, 9) // self-loop ignored
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	e := g.GetEdge(1, 0)
	if e == nil || e.Pos != 0.7 || e.Neg != -0.1 {
		t.Errorf("GetEdge = %+v", e)
	}
	if g.GetEdge(0, 3) != nil {
		t.Error("absent edge should be nil")
	}
	// An edge added after a read lands in order too, and may overwrite.
	g.AddEdge(0, 3, 0.3, 0)
	g.AddEdge(3, 2, 0.9, 0)
	want := []Edge{{0, 1, 0.7, -0.1}, {0, 3, 0.3, 0}, {2, 3, 0.9, 0}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestFromSortedEdges(t *testing.T) {
	edges := []Edge{{0, 2, 0.4, -0.1}, {1, 3, 0.9, 0}, {2, 4, 0.6, 0}}
	g := FromSortedEdges(5, edges)
	if g.NumVertices() != 5 || g.NumEdges() != 3 {
		t.Fatalf("%d vertices %d edges, want 5 and 3", g.NumVertices(), g.NumEdges())
	}
	if e := g.GetEdge(4, 2); e == nil || e.Pos != 0.6 {
		t.Errorf("GetEdge(4, 2) = %+v", e)
	}
	if g.GetEdge(0, 1) != nil || g.GetEdge(3, 4) != nil {
		t.Error("absent edges should be nil")
	}
	if &g.Edges()[0] != &edges[0] {
		t.Error("FromSortedEdges must adopt the slice, not copy it")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 4, 1, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(0, 1, 1, 0)
	es := g.Edges()
	if es[0].B != 1 || es[1].B != 2 || es[2].A != 3 {
		t.Errorf("edges not sorted: %v", es)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 0, -0.5) // negative edges still connect components
	g.AddEdge(4, 5, 1, 0)
	comps := componentVertices(g)
	want := [][]int{{0, 1, 2}, {3}, {4, 5}, {6}}
	if len(comps) != len(want) {
		t.Fatalf("comps = %v", comps)
	}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("comps = %v, want %v", comps, want)
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("comps = %v, want %v", comps, want)
			}
		}
	}
}

// componentVertices is Decompose's vertex list per component.
func componentVertices(g *Graph) [][]int {
	var out [][]int
	for _, c := range g.Decompose() {
		out = append(out, c.Vertices)
	}
	return out
}

// bfsComponents computes the connected components over adjacency lists,
// kept as the oracle for the union-find ones.
func bfsComponents(g *Graph) [][]int {
	adj := make([][]int, g.NumVertices())
	for _, e := range g.Edges() {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	visited := make([]bool, g.NumVertices())
	var comps [][]int
	for s := range adj {
		if visited[s] {
			continue
		}
		visited[s] = true
		comp, queue := []int{s}, []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
					comp = append(comp, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// randomGraph adds random edges in random order, with repeats and
// self-loops, so the lazy sort and last-wins de-duplication are exercised.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for e := rng.Intn(3 * n); e > 0; e-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64(), -rng.Float64())
	}
	return g
}

func TestConnectedComponentsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 1+rng.Intn(40))
		if got, want := componentVertices(g), bfsComponents(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, BFS gives %v", trial, got, want)
		}
	}
}

// TestEdgeListMatchesMap replays random AddEdge sequences against the
// map-keyed store the flat list replaced: same edge set, same weights
// (last write wins), listed in (A, B) order, found by GetEdge.
func TestEdgeListMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		g := New(n)
		ref := make(map[[2]int]Edge)
		for e := rng.Intn(4 * n); e > 0; e-- {
			a, b, pos, neg := rng.Intn(n), rng.Intn(n), rng.Float64(), -rng.Float64()
			g.AddEdge(a, b, pos, neg)
			if a > b {
				a, b = b, a
			}
			if a != b {
				ref[[2]int{a, b}] = Edge{A: a, B: b, Pos: pos, Neg: neg}
			}
			if rng.Intn(5) == 0 && g.NumEdges() != len(ref) { // reads interleave with writes
				t.Fatalf("trial %d: NumEdges = %d, want %d", trial, g.NumEdges(), len(ref))
			}
		}
		es := g.Edges()
		if len(es) != len(ref) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(es), len(ref))
		}
		for i, e := range es {
			if i > 0 && !less(es[i-1], e) {
				t.Fatalf("trial %d: edges not strictly ascending at %d: %v", trial, i, es)
			}
			if ref[[2]int{e.A, e.B}] != e {
				t.Fatalf("trial %d: edge %+v, want %+v", trial, e, ref[[2]int{e.A, e.B}])
			}
			if got := g.GetEdge(e.B, e.A); got == nil || *got != e {
				t.Fatalf("trial %d: GetEdge(%d, %d) = %+v, want %+v", trial, e.B, e.A, got, e)
			}
		}
	}
}
