package graph

import (
	"container/heap"
	"sort"
)

// The paper's protocol selects *heavy* edges (weight ∝ PS strength), i.e. it
// builds a maximum spanning tree. KruskalMax is the reference the runs use;
// PrimMax and BoruvkaMax are independent constructions the tests check it
// against, and KruskalMin is the lower bound the tests compare trees with.
// The maximum variants negate the comparison, not the weights, so results
// carry the original weights.

// KruskalMin returns a minimum spanning forest of g.
func KruskalMin(g *Graph) []Edge { return kruskal(g, false) }

// KruskalMax returns a maximum spanning forest of g — the reference result
// the paper's heavy-edge tree must match when edge weights are distinct.
func KruskalMax(g *Graph) []Edge { return kruskal(g, true) }

func kruskal(g *Graph, max bool) []Edge {
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	sort.SliceStable(edges, func(i, j int) bool {
		if max {
			return edges[i].Weight > edges[j].Weight
		}
		return edges[i].Weight < edges[j].Weight
	})
	uf := NewUnionFind(g.n)
	var out []Edge
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
			if len(out) == g.n-1 {
				break
			}
		}
	}
	return out
}

// edgeHeap is a max-heap of edges by weight, for Prim's algorithm.
type edgeHeap []Edge

func (h edgeHeap) Len() int           { return len(h) }
func (h edgeHeap) Less(i, j int) bool { return h[i].Weight > h[j].Weight }
func (h edgeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *edgeHeap) Push(x any)        { *h = append(*h, x.(Edge)) }
func (h *edgeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// PrimMax returns a maximum spanning forest via Prim's algorithm (run from
// every unvisited vertex, so disconnected graphs yield a forest).
func PrimMax(g *Graph) []Edge {
	visited := make([]bool, g.n)
	var out []Edge
	for start := 0; start < g.n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		h := &edgeHeap{}
		for _, e := range g.adj[start] {
			heap.Push(h, e)
		}
		for h.Len() > 0 {
			e := heap.Pop(h).(Edge)
			if visited[e.V] {
				continue
			}
			visited[e.V] = true
			out = append(out, e)
			for _, next := range g.adj[e.V] {
				if !visited[next.V] {
					heap.Push(h, next)
				}
			}
		}
	}
	return out
}

// BoruvkaMax returns a maximum spanning forest via Borůvka phases — the
// centralized analogue of the paper's fragment-merging Algorithm 1, where
// every subtree picks its heaviest outgoing edge in parallel and merges.
func BoruvkaMax(g *Graph) []Edge {
	uf := NewUnionFind(g.n)
	var out []Edge
	better := func(a, b Edge) bool {
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		// Deterministic tie-break on endpoint ids keeps phases stable
		// and, with distinct weights, never triggers.
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	}
	for {
		// Each component selects its best outgoing edge.
		best := make(map[int]Edge)
		for _, e := range g.edges {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			if b, ok := best[ru]; !ok || better(e, b) {
				best[ru] = e
			}
			if b, ok := best[rv]; !ok || better(e, b) {
				best[rv] = e
			}
		}
		if len(best) == 0 {
			return out
		}
		for _, e := range best {
			if uf.Union(e.U, e.V) {
				out = append(out, e)
			}
		}
	}
}

// SpanningTreeOf reports whether edges form a spanning tree of the n-vertex
// graph restricted to one component: exactly n-1 edges, all n vertices
// connected, no cycles.
func SpanningTreeOf(n int, edges []Edge) bool {
	if len(edges) != n-1 && !(n == 0 && len(edges) == 0) {
		return false
	}
	uf := NewUnionFind(n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return false
		}
		if !uf.Union(e.U, e.V) {
			return false // cycle
		}
	}
	return n == 0 || uf.Count() == 1
}

// SpanningForestOf reports whether edges form a spanning forest matching the
// component structure of g: acyclic and connecting exactly g's components.
func SpanningForestOf(g *Graph, edges []Edge) bool {
	uf := NewUnionFind(g.n)
	for _, e := range edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return false
		}
		if !uf.Union(e.U, e.V) {
			return false // cycle
		}
	}
	// The forest must connect exactly what g connects.
	want := NewUnionFind(g.n)
	for _, e := range g.edges {
		want.Union(e.U, e.V)
	}
	if want.Count() != uf.Count() {
		return false
	}
	// With equal component counts, the partitions agree iff every
	// g-component maps into a single forest component.
	rep := make(map[int]int)
	for v := 0; v < g.n; v++ {
		wr, fr := want.Find(v), uf.Find(v)
		if prev, ok := rep[wr]; ok {
			if prev != fr {
				return false
			}
		} else {
			rep[wr] = fr
		}
	}
	return true
}
