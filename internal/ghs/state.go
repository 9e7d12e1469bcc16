// Checkpoint support: a serializable copy of the merge protocol's full
// state. The neighbour tables are captured too — they were snapshotted from
// the environment when the protocol was created, and the environment's
// discovery tables have moved on since, so a restore cannot rebuild them.
// Member lists keep their exact (merge-history) order: Step charges Report/
// Decision messages by iterating them, so order is part of the trajectory.

package ghs

import (
	"sort"

	"repro/internal/graph"
)

// FragmentState is one live fragment: its union-find root, head node,
// member count and members in merge order.
type FragmentState struct {
	Root    int   `json:"root"`
	Head    int   `json:"head"`
	Size    int   `json:"size"`
	Members []int `json:"members"`
}

// ProtocolState is the serializable state of a Protocol. Closures
// (OnMessage, LinkTrials, OnMerge) are not captured; RestoreProtocol takes a
// fresh Config to re-wire them.
type ProtocolState struct {
	N             int                  `json:"n"`
	W             Adjacency            `json:"w"`
	UF            graph.UnionFindState `json:"uf"`
	Fragments     []FragmentState      `json:"fragments"`
	TreeAdj       [][]int              `json:"tree_adj"`
	Done          bool                 `json:"done"`
	Edges         []graph.Edge         `json:"edges"`
	Phases        int                  `json:"phases"`
	Messages      uint64               `json:"messages"`
	Transmissions uint64               `json:"transmissions"`
}

// Adjacency is the symmetrized weighted neighbour tables as one CSR: node
// u's neighbours are Peer[Off[u]:Off[u+1]], with their link weights in the
// parallel Weight column, in the protocol's row order.
type Adjacency struct {
	Off    []int     `json:"off"`
	Peer   []int     `json:"peer"`
	Weight []float64 `json:"weight"`
}

// State returns a deep copy of the protocol's state, with fragments sorted
// by root so the serialized form is byte-stable.
func (p *Protocol) State() ProtocolState {
	st := ProtocolState{
		N:             p.n,
		W:             Adjacency{Off: make([]int, p.n+1)},
		UF:            p.uf.State(),
		TreeAdj:       make([][]int, p.n),
		Done:          p.done,
		Edges:         append([]graph.Edge(nil), p.edges...),
		Phases:        p.phases,
		Messages:      p.messages,
		Transmissions: p.transmissions,
	}
	for i, row := range p.w {
		for _, nb := range row {
			st.W.Peer, st.W.Weight = append(st.W.Peer, nb.Peer), append(st.W.Weight, nb.Weight)
		}
		st.W.Off[i+1] = len(st.W.Peer)
	}
	for i := range p.treeAdj {
		st.TreeAdj[i] = append([]int(nil), p.treeAdj[i]...)
	}
	for r, mem := range p.members {
		st.Fragments = append(st.Fragments, FragmentState{
			Root:    r,
			Head:    p.head[r],
			Size:    p.size[r],
			Members: append([]int(nil), mem...),
		})
	}
	sort.Slice(st.Fragments, func(i, j int) bool { return st.Fragments[i].Root < st.Fragments[j].Root })
	return st
}

// RestoreProtocol rebuilds a protocol from a saved state. cfg supplies the
// accounting and merge hooks (its Neighbors field is ignored — the state
// carries the symmetrized tables the protocol was built over).
func RestoreProtocol(cfg Config, st ProtocolState) *Protocol {
	p := &Protocol{
		cfg:           cfg,
		n:             st.N,
		w:             make([][]Neighbor, st.N),
		uf:            graph.RestoreUnionFind(st.UF),
		head:          make(map[int]int, len(st.Fragments)),
		size:          make(map[int]int, len(st.Fragments)),
		members:       make(map[int][]int, len(st.Fragments)),
		treeAdj:       make([][]int, st.N),
		done:          st.Done,
		edges:         append([]graph.Edge(nil), st.Edges...),
		phases:        st.Phases,
		messages:      st.Messages,
		transmissions: st.Transmissions,
	}
	w := st.W
	nbs := make([]Neighbor, len(w.Peer))
	for k := range nbs {
		nbs[k] = Neighbor{Peer: w.Peer[k], Weight: w.Weight[k]}
	}
	for i := 0; i < st.N && i+1 < len(w.Off); i++ {
		p.w[i] = nbs[w.Off[i]:w.Off[i+1]:w.Off[i+1]]
	}
	for i := 0; i < st.N && i < len(st.TreeAdj); i++ {
		p.treeAdj[i] = append([]int(nil), st.TreeAdj[i]...)
	}
	for _, f := range st.Fragments {
		p.head[f.Root] = f.Head
		p.size[f.Root] = f.Size
		p.members[f.Root] = append([]int(nil), f.Members...)
	}
	return p
}
