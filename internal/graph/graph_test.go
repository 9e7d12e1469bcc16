package graph

import (
	"testing"

	"repro/internal/xrand"
)

func mustAdd(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop should error")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range vertex should error")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative vertex should error")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Errorf("valid edge errored: %v", err)
	}
	if g.N() != 3 || len(g.Edges()) != 1 {
		t.Errorf("N=%d edges=%d", g.N(), len(g.Edges()))
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 2.5)
	mustAdd(t, g, 1, 2, 1.5)
	if len(g.Adj(1)) != 2 || len(g.Adj(0)) != 1 || len(g.Adj(3)) != 0 {
		t.Errorf("degrees wrong: %d %d %d", len(g.Adj(1)), len(g.Adj(0)), len(g.Adj(3)))
	}
	for _, e := range g.Adj(1) {
		if e.U != 1 {
			t.Errorf("Adj(1) edge not oriented outward: %+v", e)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 4, 5, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !New(0).IsConnected() {
		t.Error("empty graph should count as connected")
	}
}

func TestBFS(t *testing.T) {
	g := New(5)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 2, 3, 1)
	d := g.BFS(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("BFS dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	// Out-of-range source: all -1.
	for _, v := range g.BFS(-1) {
		if v != -1 {
			t.Error("invalid source should yield all -1")
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("initial count = %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions should succeed")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union should return false")
	}
	if uf.Count() != 3 {
		t.Errorf("count = %d, want 3", uf.Count())
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(0) == uf.Find(2) {
		t.Error("connectivity wrong")
	}
	uf.Union(0, 2)
	if uf.Find(1) != uf.Find(3) {
		t.Error("transitive connectivity broken")
	}
}

func TestTotalWeight(t *testing.T) {
	edges := []Edge{{0, 1, 1.5}, {1, 2, 2.5}}
	if w := TotalWeight(edges); w != 4 {
		t.Errorf("TotalWeight = %v", w)
	}
	if w := TotalWeight(nil); w != 0 {
		t.Errorf("empty TotalWeight = %v", w)
	}
}

// randomConnectedGraph builds a connected graph with distinct random weights:
// a random spanning chain plus extra random edges.
func randomConnectedGraph(n, extra int, s *xrand.Stream) *Graph {
	g := New(n)
	perm := s.Perm(n)
	used := map[[2]int]bool{}
	addUnique := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || used[[2]int{u, v}] {
			return
		}
		used[[2]int{u, v}] = true
		// Distinct weights with overwhelming probability.
		g.AddEdge(u, v, s.Float64()*1000)
	}
	for i := 1; i < n; i++ {
		addUnique(perm[i-1], perm[i])
	}
	for i := 0; i < extra; i++ {
		addUnique(s.Intn(n), s.Intn(n))
	}
	return g
}

func TestMSTAlgorithmsAgree(t *testing.T) {
	s := xrand.NewStream(1)
	for trial := 0; trial < 30; trial++ {
		n := 2 + s.Intn(40)
		g := randomConnectedGraph(n, n*2, s)
		kMin := KruskalMin(g)
		kMax := KruskalMax(g)
		pMax := PrimMax(g)
		bMax := BoruvkaMax(g)
		for _, tree := range [][]Edge{kMin, kMax, pMax, bMax} {
			if !SpanningTreeOf(n, tree) {
				t.Fatalf("trial %d: some algorithm did not return a spanning tree", trial)
			}
		}
		wk := TotalWeight(kMin)
		wkx, wpx, wbx := TotalWeight(kMax), TotalWeight(pMax), TotalWeight(bMax)
		if diff(wkx, wpx) > 1e-9 || diff(wkx, wbx) > 1e-9 {
			t.Fatalf("trial %d: max weights differ: kruskal=%v prim=%v boruvka=%v", trial, wkx, wpx, wbx)
		}
		if wkx < wk {
			t.Fatalf("trial %d: max tree lighter than min tree", trial)
		}
	}
}

func TestMaxSpanningTreeBeatsAnyOtherTree(t *testing.T) {
	// The paper claims "the resultant weight of our spanning tree will
	// always be greater than [any other] spanning tree". Verify the max
	// spanning tree dominates random spanning trees.
	s := xrand.NewStream(2)
	for trial := 0; trial < 10; trial++ {
		n := 3 + s.Intn(20)
		g := randomConnectedGraph(n, n*3, s)
		maxW := TotalWeight(KruskalMax(g))
		// Random spanning tree: random edge order through union-find.
		edges := g.Edges()
		uf := NewUnionFind(n)
		var w float64
		for _, k := range s.Perm(len(edges)) {
			if e := edges[k]; uf.Union(e.U, e.V) {
				w += e.Weight
			}
		}
		if w > maxW+1e-9 {
			t.Fatalf("random spanning tree heavier than max spanning tree: %v > %v", w, maxW)
		}
	}
}

func TestMSTOnDisconnectedGraph(t *testing.T) {
	g := New(5)
	mustAdd(t, g, 0, 1, 3)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 2)
	mustAdd(t, g, 3, 4, 5)
	for name, f := range map[string]func(*Graph) []Edge{
		"kruskal-min": KruskalMin, "kruskal": KruskalMax, "prim": PrimMax, "boruvka": BoruvkaMax,
	} {
		forest := f(g)
		if len(forest) != 3 {
			t.Errorf("%s forest size = %d, want 3", name, len(forest))
		}
		if !SpanningForestOf(g, forest) {
			t.Errorf("%s result is not a spanning forest", name)
		}
	}
}

func TestKruskalMinKnownAnswer(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 2)
	mustAdd(t, g, 2, 3, 3)
	mustAdd(t, g, 0, 3, 10)
	mustAdd(t, g, 0, 2, 10)
	min := KruskalMin(g)
	if w := TotalWeight(min); w != 6 {
		t.Errorf("min weight = %v, want 6", w)
	}
	max := KruskalMax(g)
	// Max tree: both 10-edges, then 1-2 (2); edge 2-3 would close the
	// cycle 0-2-3-0.
	if w := TotalWeight(max); w != 22 {
		t.Errorf("max weight = %v, want 22 (10+10+2)", w)
	}
}

func TestSpanningTreeOf(t *testing.T) {
	if !SpanningTreeOf(3, []Edge{{0, 1, 1}, {1, 2, 1}}) {
		t.Error("valid tree rejected")
	}
	if SpanningTreeOf(3, []Edge{{0, 1, 1}}) {
		t.Error("too few edges accepted")
	}
	if SpanningTreeOf(3, []Edge{{0, 1, 1}, {0, 1, 2}}) {
		t.Error("cycle (parallel edge) accepted")
	}
	if SpanningTreeOf(3, []Edge{{0, 1, 1}, {0, 5, 1}}) {
		t.Error("out-of-range edge accepted")
	}
	if !SpanningTreeOf(0, nil) {
		t.Error("empty tree of empty graph rejected")
	}
}

func TestSpanningForestOf(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 2, 3, 1)
	if !SpanningForestOf(g, []Edge{{0, 1, 1}, {2, 3, 1}}) {
		t.Error("valid forest rejected")
	}
	// Wrong partition: connects across g's components.
	if SpanningForestOf(g, []Edge{{0, 1, 1}, {1, 2, 1}}) {
		t.Error("forest crossing components accepted")
	}
	// Cycle.
	if SpanningForestOf(g, []Edge{{0, 1, 1}, {0, 1, 2}}) {
		t.Error("cyclic forest accepted")
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
