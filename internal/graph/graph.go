// Package graph provides the weighted undirected graph model of Section IV
// — G(V,E) with vertices as devices and edge weights proportional to
// observed PS strength — together with the classical reference algorithms
// (Kruskal, union-find, BFS, components; Prim and Borůvka as test
// cross-checks of Kruskal) used to verify the distributed spanning-tree
// protocol and to analyse resulting topologies.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V   int
	Weight float64
}

// String formats the edge for traces and the Fig. 2 style tree dump.
func (e Edge) String() string { return fmt.Sprintf("%d—%d (w=%.3f)", e.U, e.V, e.Weight) }

// Graph is a weighted undirected graph over vertices 0..N-1 with an
// adjacency-list representation. Parallel edges are permitted (the heavier
// one simply wins in spanning-tree algorithms); self-loops are rejected.
type Graph struct {
	n     int
	adj   [][]Edge // adj[u] holds edges with U==u
	edges []Edge
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge. Self-loops and out-of-range vertices
// return an error.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
	g.adj[u] = append(g.adj[u], Edge{U: u, V: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{U: v, V: u, Weight: w})
	return nil
}

// Edges returns all edges (U < V is not guaranteed; edges appear once, as
// inserted).
func (g *Graph) Edges() []Edge { return g.edges }

// Adj returns the edges incident to u, oriented outward (Edge.U == u).
func (g *Graph) Adj(u int) []Edge { return g.adj[u] }

// TotalWeight sums all edge weights.
func TotalWeight(edges []Edge) float64 {
	var s float64
	for _, e := range edges {
		s += e.Weight
	}
	return s
}

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int
	rank   []byte
	count  int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]byte, n), count: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the set representative of x.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; it reports whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// UnionFindState is a serializable copy of a union-find forest. The parent
// array is captured verbatim (including any path-halving shortcuts) because
// root identity — not just partition membership — feeds deterministic
// iteration orders downstream, and rank decides future union winners.
type UnionFindState struct {
	Parent []int  `json:"parent"`
	Rank   []byte `json:"rank"`
	Count  int    `json:"count"`
}

// State returns a deep copy of the forest's state.
func (uf *UnionFind) State() UnionFindState {
	return UnionFindState{
		Parent: append([]int(nil), uf.parent...),
		Rank:   append([]byte(nil), uf.rank...),
		Count:  uf.count,
	}
}

// RestoreUnionFind rebuilds a forest from a saved state.
func RestoreUnionFind(st UnionFindState) *UnionFind {
	return &UnionFind{
		parent: append([]int(nil), st.Parent...),
		rank:   append([]byte(nil), st.Rank...),
		count:  st.Count,
	}
}

// Components returns the connected components of g as vertex lists, each
// sorted ascending, ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	uf := NewUnionFind(g.n)
	for _, e := range g.edges {
		uf.Union(e.U, e.V)
	}
	groups := make(map[int][]int)
	for v := 0; v < g.n; v++ {
		r := uf.Find(v)
		groups[r] = append(groups[r], v)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	seenMin := make([]int, 0, len(roots))
	for _, r := range roots {
		sort.Ints(groups[r])
		out = append(out, groups[r])
		seenMin = append(seenMin, groups[r][0])
	}
	sort.SliceStable(out, func(i, j int) bool { return seenMin[i] < seenMin[j] })
	return out
}

// IsConnected reports whether g has exactly one component (or is empty).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	return len(g.Components()) == 1
}

// BFS returns the breadth-first distances (in hops) from src; unreachable
// vertices get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.V] == -1 {
				dist[e.V] = dist[u] + 1
				queue = append(queue, e.V)
			}
		}
	}
	return dist
}
