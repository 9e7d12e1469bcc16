package ghs

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// neighborsFromGraph converts a graph into per-node neighbour tables.
func neighborsFromGraph(g *graph.Graph) [][]Neighbor {
	out := make([][]Neighbor, g.N())
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Adj(u) {
			out[u] = append(out[u], Neighbor{Peer: e.V, Weight: e.Weight})
		}
	}
	return out
}

func randomConnectedGraph(n, extra int, s *xrand.Stream) *graph.Graph {
	g := graph.New(n)
	perm := s.Perm(n)
	used := map[[2]int]bool{}
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || used[[2]int{u, v}] {
			return
		}
		used[[2]int{u, v}] = true
		g.AddEdge(u, v, s.Float64()*1000)
	}
	for i := 1; i < n; i++ {
		add(perm[i-1], perm[i])
	}
	for i := 0; i < extra; i++ {
		add(s.Intn(n), s.Intn(n))
	}
	return g
}

func TestMatchesKruskalMax(t *testing.T) {
	s := xrand.NewStream(1)
	for trial := 0; trial < 25; trial++ {
		n := 2 + s.Intn(60)
		g := randomConnectedGraph(n, n*2, s)
		res := Run(Config{Neighbors: neighborsFromGraph(g)})
		if !graph.SpanningTreeOf(n, res.Edges) {
			t.Fatalf("trial %d: result is not a spanning tree", trial)
		}
		want := graph.TotalWeight(graph.KruskalMax(g))
		got := graph.TotalWeight(res.Edges)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: ghs weight %v != kruskal max %v", trial, got, want)
		}
	}
}

func TestPhasesLogarithmic(t *testing.T) {
	s := xrand.NewStream(2)
	g := randomConnectedGraph(512, 2048, s)
	res := Run(Config{Neighbors: neighborsFromGraph(g)})
	if res.Phases < 1 || res.Phases > 9 {
		t.Errorf("phases on n=512: %d, want within [1, 9] (= log2 n)", res.Phases)
	}
}

func TestMessagesNLogN(t *testing.T) {
	// Total messages must scale like O(n log n): check the per-node
	// message count grows sublinearly (≈ log n) across a size sweep.
	s := xrand.NewStream(3)
	perNode := func(n int) float64 {
		g := randomConnectedGraph(n, n*3, s)
		res := Run(Config{Neighbors: neighborsFromGraph(g)})
		return float64(res.Messages) / float64(n)
	}
	m64 := perNode(64)
	m512 := perNode(512)
	// An O(n²) protocol would grow per-node messages 8x here; O(n log n)
	// grows them by ~log(512)/log(64) = 1.5x.
	if m512 > 3*m64 {
		t.Errorf("per-node messages grew from %v (n=64) to %v (n=512); too fast for O(n log n)", m64, m512)
	}
}

func TestSingletonAndEmpty(t *testing.T) {
	res := Run(Config{Neighbors: make([][]Neighbor, 1)})
	if len(res.Edges) != 0 || res.Phases != 0 || res.Messages != 0 {
		t.Errorf("singleton run = %+v", res)
	}
	if res.Parent[0] != -1 {
		t.Error("singleton should be its own root")
	}
	res0 := Run(Config{Neighbors: nil})
	if len(res0.Edges) != 0 {
		t.Error("empty run should produce no edges")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.AddEdge(3, 4, 7)
	res := Run(Config{Neighbors: neighborsFromGraph(g)})
	if len(res.Edges) != 3 {
		t.Fatalf("forest size = %d, want 3", len(res.Edges))
	}
	if !graph.SpanningForestOf(g, res.Edges) {
		t.Error("result is not a spanning forest of the input")
	}
	// Two fragments remain.
	frags := map[int]bool{}
	for _, f := range res.Fragment {
		frags[f] = true
	}
	if len(frags) != 2 {
		t.Errorf("fragments = %v, want 2 distinct", res.Fragment)
	}
}

func TestTwoNodeHandshake(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	var kinds []MessageKind
	res := Run(Config{
		Neighbors: neighborsFromGraph(g),
		OnMessage: func(k MessageKind, from, to, tx int) { kinds = append(kinds, k) },
	})
	if len(res.Edges) != 1 {
		t.Fatal("two nodes should join")
	}
	// Phase 1: both singletons choose the same edge and each runs one
	// H_Connect probe+accept (4 messages; singletons need no
	// convergecast). The termination round then costs one report + one
	// decision inside the merged 2-node fragment to learn there is no
	// outgoing edge left.
	if res.Messages != 6 {
		t.Errorf("messages = %d, want 6 (2x connect + 2x accept + report + decision)", res.Messages)
	}
	var connects, accepts int
	for _, k := range kinds {
		switch k {
		case MsgConnect:
			connects++
		case MsgAccept:
			accepts++
		}
	}
	if connects != 2 || accepts != 2 {
		t.Errorf("connect/accept = %d/%d, want 2/2", connects, accepts)
	}
	if res.Phases != 1 {
		t.Errorf("phases = %d, want 1", res.Phases)
	}
}

func TestHeadFromLargerFragment(t *testing.T) {
	// Path 0-1-2-3 with weights forcing 0-1 and 2-3 first, then the
	// middle edge. After phase 1: fragments {0,1} and {2,3} (equal size,
	// heads 0 and 2 by min-id tie-break). After phase 2 the merged head
	// must be one of the previous heads, chosen by the size/min-id rule.
	g := graph.New(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 9)
	res := Run(Config{Neighbors: neighborsFromGraph(g)})
	if len(res.Head) != 1 {
		t.Fatalf("want one fragment, got heads %v", res.Head)
	}
	for _, h := range res.Head {
		if h != 0 {
			t.Errorf("merged head = %d, want 0 (equal sizes, min head id)", h)
		}
	}
}

func TestParentForestRootedAtHead(t *testing.T) {
	s := xrand.NewStream(4)
	g := randomConnectedGraph(40, 80, s)
	res := Run(Config{Neighbors: neighborsFromGraph(g)})
	var headNode int
	for _, h := range res.Head {
		headNode = h
	}
	if res.Parent[headNode] != -1 {
		t.Fatalf("head %d has parent %d, want -1", headNode, res.Parent[headNode])
	}
	// Every node must reach the head through Parent without cycles.
	for v := 0; v < g.N(); v++ {
		seen := map[int]bool{}
		u := v
		for u != headNode {
			if seen[u] {
				t.Fatalf("parent cycle at %d", v)
			}
			seen[u] = true
			u = res.Parent[u]
			if u < 0 {
				t.Fatalf("node %d walked off the tree", v)
			}
		}
	}
}

func TestInvalidNeighborEntriesDropped(t *testing.T) {
	nbrs := [][]Neighbor{
		{{Peer: 0, Weight: 1}, {Peer: 9, Weight: 1}, {Peer: 1, Weight: 2}},
		nil,
	}
	res := Run(Config{Neighbors: nbrs})
	if len(res.Edges) != 1 {
		t.Fatalf("edges = %v", res.Edges)
	}
	if res.Edges[0].Weight != 2 {
		t.Errorf("kept weight %v, want 2", res.Edges[0].Weight)
	}
}

func TestLinkTrialsAccounting(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	res := Run(Config{
		Neighbors:  neighborsFromGraph(g),
		LinkTrials: func(from, to int) int { return 3 },
	})
	if res.Messages != 6 {
		t.Errorf("messages = %d, want 6", res.Messages)
	}
	if res.Transmissions != 18 {
		t.Errorf("transmissions = %d, want 18 (3 per message)", res.Transmissions)
	}
	// Zero/negative trials are coerced to 1.
	res2 := Run(Config{
		Neighbors:  neighborsFromGraph(g),
		LinkTrials: func(from, to int) int { return 0 },
	})
	if res2.Transmissions != res2.Messages {
		t.Error("non-positive trials should count as 1")
	}
}

func TestOnMessageHookSeesTrials(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	total := 0
	Run(Config{
		Neighbors:  neighborsFromGraph(g),
		LinkTrials: func(from, to int) int { return 2 },
		OnMessage:  func(k MessageKind, from, to, tx int) { total += tx },
	})
	if total != 12 {
		t.Errorf("hook saw %d transmissions, want 12 (6 messages x 2 trials)", total)
	}
}

func TestMessageKindString(t *testing.T) {
	want := map[MessageKind]string{
		MsgReport: "report", MsgDecision: "decision",
		MsgConnect: "connect", MsgAccept: "accept",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if MessageKind(7).String() != "msg(7)" {
		t.Error("unknown kind format")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := xrand.NewStream(5)
	g := randomConnectedGraph(30, 60, s)
	nbrs := neighborsFromGraph(g)
	a := Run(Config{Neighbors: nbrs})
	b := Run(Config{Neighbors: nbrs})
	if a.Messages != b.Messages || a.Phases != b.Phases || len(a.Edges) != len(b.Edges) {
		t.Error("runs on identical input differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}
