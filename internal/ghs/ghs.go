// Package ghs implements the paper's tree-based topological mechanism
// (Section IV, Algorithms 1 and 2): a distributed, GHS/Borůvka-style
// fragment-merging protocol that builds a *maximum* spanning tree over the
// discovered neighbour graph, where edge weight is proportional to observed
// PS strength ("by selecting heavy edge, devices make synchronization in
// networks").
//
// The protocol proceeds in synchronous merge phases. Every fragment (subtree
// S_v, initially a singleton per Algorithm 1 line 2):
//
//  1. convergecasts each member's heaviest outgoing edge to the fragment
//     head (one Report per tree edge),
//  2. the head picks the fragment-wide heaviest outgoing edge and floods the
//     decision back down (one Decision per tree edge),
//  3. the boundary node runs H_Connect (Algorithm 2): a Connect probe on
//     RACH2 across the chosen edge, answered by an Accept,
//  4. fragments joined by chosen edges merge; the new head is taken from the
//     constituent with the most nodes (Algorithm 1's "choose Sv.head from
//     highest number of node's tree").
//
// Distinct edge weights guarantee the chosen edges are cycle-free across a
// phase (the classic Borůvka argument), the number of phases is O(log n),
// and the result equals the centralized maximum spanning forest — which the
// tests verify against graph.KruskalMax.
package ghs

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Neighbor is one entry of a node's discovered neighbour table.
type Neighbor struct {
	// Peer is the neighbouring node id.
	Peer int
	// Weight is the link weight (proportional to PS strength), the same
	// in both endpoints' tables.
	Weight float64
}

// MessageKind labels protocol messages for the accounting hook.
type MessageKind int

const (
	// MsgReport is a convergecast report toward the fragment head.
	MsgReport MessageKind = iota
	// MsgDecision is the head's decision flooded down the fragment.
	MsgDecision
	// MsgConnect is the H_Connect probe across the chosen edge.
	MsgConnect
	// MsgAccept is the reciprocal H_Connect acknowledgement.
	MsgAccept
)

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	switch k {
	case MsgReport:
		return "report"
	case MsgDecision:
		return "decision"
	case MsgConnect:
		return "connect"
	case MsgAccept:
		return "accept"
	default:
		return fmt.Sprintf("msg(%d)", int(k))
	}
}

// Config configures a protocol run.
type Config struct {
	// Neighbors is the per-node discovered neighbour table, one row per
	// node, symmetric: v lists u at weight w exactly when u lists v at w
	// (a one-way entry is a candidate edge for its lister's fragment
	// only). Self and out-of-range peers are dropped.
	Neighbors [][]Neighbor
	// OnMessage, when non-nil, is invoked once per protocol message with
	// the number of link-layer transmissions it took (>= 1). The core
	// layer uses it to charge the rach counters.
	OnMessage func(kind MessageKind, from, to int, transmissions int)
	// LinkTrials, when non-nil, returns how many transmissions delivering
	// one message over the (from,to) link took (>= 1); nil means every
	// message succeeds first try. This is where channel loss enters.
	LinkTrials func(from, to int) int
	// OnMerge, when non-nil, is invoked for every applied merge with the
	// joining edge, the boundary node on the side whose head survives,
	// and the members of the fragment whose head was replaced. The ST
	// protocol uses it for sync-word phase adoption: the losing fragment
	// aligns its firefly phase to the surviving fragment through the
	// H_Connect exchange.
	OnMerge func(edge graph.Edge, winnerBoundary int, adopting []int)
	// LinkBlocked, when non-nil, reports that the (from,to) link cannot
	// currently carry traffic (a network partition separates the
	// endpoints). Blocked candidate edges are skipped for the phase — no
	// probe is charged, the H_Connect handshake simply cannot complete —
	// and a fragment whose every outgoing edge is blocked defers rather
	// than concluding it has none: Step keeps returning true without
	// latching Done, so the protocol resumes merging when the split
	// lifts instead of wedging on a false "forest complete" verdict.
	LinkBlocked func(from, to int) bool
}

// Result is the outcome of a run.
type Result struct {
	// Edges is the built spanning forest (tree per connected component).
	Edges []graph.Edge
	// Phases is the number of merge phases executed.
	Phases int
	// Messages is the total protocol message count (each counted once,
	// regardless of link retries).
	Messages uint64
	// Transmissions is the total link-layer transmissions including
	// retries (equals Messages when LinkTrials is nil).
	Transmissions uint64
	// Fragment maps each node to its final fragment representative;
	// connected graphs end with a single value.
	Fragment []int
	// Head holds each fragment's head node, one per fragment, in
	// ascending representative order.
	Head []int
	// Parent is the forest rooted at each fragment head: Parent[head] is
	// -1, every other node points toward its head along tree edges.
	Parent []int
}

// Protocol is the stateful form of the merge protocol: call Step once per
// merge opportunity (the ST protocol runs one Step every few firefly
// periods, in parallel with synchronization), or use Run to execute all
// phases back to back.
type Protocol struct {
	cfg     Config
	n       int
	w       Adjacency
	uf      *graph.UnionFind
	head    []int   // per fragment root: its head node
	size    []int   // per fragment root: its member count
	members [][]int // per fragment root: its members; nil off roots
	treeAdj [][]int
	done    bool

	edges         []graph.Edge
	phases        int
	messages      uint64
	transmissions uint64
}

// NewProtocol initializes the protocol over the given (snapshot) neighbour
// tables.
func NewProtocol(cfg Config) *Protocol {
	n := len(cfg.Neighbors)
	p := &Protocol{
		cfg:     cfg,
		n:       n,
		w:       pack(cfg.Neighbors),
		uf:      graph.NewUnionFind(n),
		head:    make([]int, n),
		size:    make([]int, n),
		members: make([][]int, n),
		treeAdj: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		p.head[v] = v
		p.size[v] = 1
		p.members[v] = []int{v}
	}
	if n == 0 {
		p.done = true
	}
	return p
}

// Done reports whether no fragment has an outgoing edge left (the forest is
// complete).
func (p *Protocol) Done() bool { return p.done }

// Fragments returns the current number of fragments.
func (p *Protocol) Fragments() int { return p.uf.Count() }

// FragmentIDs appends each node's current fragment representative to dst
// (reusing its capacity) and returns it: nodes u and v are in one fragment
// iff ids[u] == ids[v]. The snapshot is immutable, so it can be read
// concurrently while the protocol is quiescent between Steps.
func (p *Protocol) FragmentIDs(dst []int) []int {
	dst = dst[:0]
	for v := 0; v < p.n; v++ {
		dst = append(dst, p.uf.Find(v))
	}
	return dst
}

func (p *Protocol) charge(kind MessageKind, from, to int) {
	trials := 1
	if p.cfg.LinkTrials != nil {
		if t := p.cfg.LinkTrials(from, to); t > 0 {
			trials = t
		}
	}
	p.messages++
	p.transmissions += uint64(trials)
	if p.cfg.OnMessage != nil {
		p.cfg.OnMessage(kind, from, to, trials)
	}
}

// Step executes one merge phase (every fragment picks its heaviest outgoing
// edge and merges across it). It returns true when the phase made progress;
// false marks completion.
func (p *Protocol) Step() bool {
	if p.done {
		return false
	}
	// Each fragment selects its heaviest outgoing edge, in root order.
	var chosen []graph.Edge
	deferred := false
	for r, frag := range p.members {
		if frag == nil {
			continue
		}
		// Convergecast + flood accounting: one Report and one
		// Decision per tree edge of the fragment (|F|-1 each). These
		// travel regardless of whether an outgoing edge exists —
		// members must report "nothing" too.
		if len(frag) > 1 {
			for _, v := range frag {
				if v == p.head[r] {
					continue
				}
				p.charge(MsgReport, v, p.head[r])
				p.charge(MsgDecision, p.head[r], v)
			}
		}
		best := graph.Edge{Weight: -1}
		ok := false
		blockedEdge := false
		for _, u := range frag {
			for k := p.w.Off[u]; k < p.w.Off[u+1]; k++ {
				v := p.w.Peer[k]
				if p.uf.Find(v) == r {
					continue // internal edge
				}
				if p.cfg.LinkBlocked != nil && p.cfg.LinkBlocked(u, v) {
					blockedEdge = true
					continue // the split swallows the H_Connect probe
				}
				cand := graph.Edge{U: u, V: v, Weight: p.w.Weight[k]}
				if !ok || heavier(cand, best) {
					best, ok = cand, true
				}
			}
		}
		if ok {
			chosen = append(chosen, best)
			// H_Connect handshake on the chosen edge.
			p.charge(MsgConnect, best.U, best.V)
			p.charge(MsgAccept, best.V, best.U)
		} else if blockedEdge {
			deferred = true
		}
	}
	if len(chosen) == 0 {
		if deferred {
			// Some fragment's only outgoing edges sit across an active
			// partition: the phase is a stand-down, not a completion.
			// No phase is charged and Done stays false — the caller's
			// merge cadence will retry once the split lifts.
			return true
		}
		p.done = true
		return false
	}
	p.phases++

	// Apply merges. Distinct weights make the chosen edge set acyclic
	// across fragments; the union-find check drops the one duplicate
	// arising when two fragments choose the same edge.
	for _, c := range chosen {
		ra, rb := p.uf.Find(c.U), p.uf.Find(c.V)
		if ra == rb {
			continue
		}
		// Head selection: the constituent with more nodes wins; ties
		// break toward the smaller head id (deterministic).
		winnerRoot, loserRoot := ra, rb
		if p.size[rb] > p.size[ra] || (p.size[rb] == p.size[ra] && p.head[rb] < p.head[ra]) {
			winnerRoot, loserRoot = rb, ra
		}
		newHead := p.head[winnerRoot]
		if p.cfg.OnMerge != nil {
			boundary := c.U
			if p.uf.Find(c.U) != winnerRoot {
				boundary = c.V
			}
			p.cfg.OnMerge(c, boundary, p.members[loserRoot])
		}
		newSize := p.size[ra] + p.size[rb]
		mergedMembers := append(p.members[winnerRoot], p.members[loserRoot]...)
		p.members[ra], p.members[rb] = nil, nil
		p.uf.Union(c.U, c.V)
		nr := p.uf.Find(c.U)
		p.head[nr] = newHead
		p.size[nr] = newSize
		p.members[nr] = mergedMembers
		p.edges = append(p.edges, c)
		p.treeAdj[c.U] = append(p.treeAdj[c.U], c.V)
		p.treeAdj[c.V] = append(p.treeAdj[c.V], c.U)
	}
	return true
}

// Preseed unions already-established tree edges into the protocol's state
// without charging any messages — the self-healing repair round starts from
// the surviving forest of a broken tree instead of re-merging from
// singletons (those edges were negotiated and paid for before the fault).
// Every preseeded fragment re-elects its head as the minimum member id: the
// old head may be exactly the node whose death triggered the repair, and
// min-id is the deterministic convention both endpoints of every edge agree
// on without extra traffic. Call before the first Step; edges whose
// endpoints already share a fragment are ignored.
func (p *Protocol) Preseed(edges []graph.Edge) {
	for _, e := range edges {
		if e.U < 0 || e.U >= p.n || e.V < 0 || e.V >= p.n {
			continue
		}
		ra, rb := p.uf.Find(e.U), p.uf.Find(e.V)
		if ra == rb {
			continue
		}
		mergedMembers := append(p.members[ra], p.members[rb]...)
		newSize := p.size[ra] + p.size[rb]
		p.members[ra], p.members[rb] = nil, nil
		p.uf.Union(e.U, e.V)
		nr := p.uf.Find(e.U)
		p.members[nr] = mergedMembers
		p.size[nr] = newSize
		p.edges = append(p.edges, e)
		p.treeAdj[e.U] = append(p.treeAdj[e.U], e.V)
		p.treeAdj[e.V] = append(p.treeAdj[e.V], e.U)
	}
	for r, mem := range p.members {
		if mem != nil {
			p.head[r] = slices.Min(mem)
		}
	}
}

// Result snapshots the protocol outcome. Call after Done() for the final
// forest, or mid-run for the partial state.
func (p *Protocol) Result() Result {
	res := Result{
		Edges:         append([]graph.Edge(nil), p.edges...),
		Phases:        p.phases,
		Messages:      p.messages,
		Transmissions: p.transmissions,
		Fragment:      p.FragmentIDs(nil),
	}
	for r, mem := range p.members {
		if mem != nil {
			res.Head = append(res.Head, p.head[r])
		}
	}
	res.Parent = rootForest(p.n, p.treeAdj, res.Head)
	return res
}

// Run executes the distributed protocol to completion.
func Run(cfg Config) Result {
	p := NewProtocol(cfg)
	for p.Step() {
	}
	return p.Result()
}

// heavier orders candidate edges: heavier weight wins; ties break on the
// canonical (min,max) endpoint pair so both endpoints of an edge order it
// identically.
func heavier(a, b graph.Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	au, av := canon(a)
	bu, bv := canon(b)
	if au != bu {
		return au < bu
	}
	return av < bv
}

func canon(e graph.Edge) (int, int) {
	if e.U < e.V {
		return e.U, e.V
	}
	return e.V, e.U
}

// pack lays the neighbour tables out as one CSR, dropping self and
// out-of-range peers.
func pack(nbrs [][]Neighbor) Adjacency {
	n := len(nbrs)
	w := Adjacency{Off: make([]int, n+1)}
	for u, row := range nbrs {
		for _, nb := range row {
			if nb.Peer != u && nb.Peer >= 0 && nb.Peer < n {
				w.Peer, w.Weight = append(w.Peer, nb.Peer), append(w.Weight, nb.Weight)
			}
		}
		w.Off[u+1] = len(w.Peer)
	}
	return w
}

// rootForest BFS-roots each tree at its fragment head.
func rootForest(n int, adj [][]int, heads []int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	for _, h := range heads {
		if parent[h] != -2 {
			continue
		}
		parent[h] = -1
		queue := []int{h}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if parent[v] == -2 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
	}
	// Isolated nodes are their own heads.
	for i := range parent {
		if parent[i] == -2 {
			parent[i] = -1
		}
	}
	return parent
}
