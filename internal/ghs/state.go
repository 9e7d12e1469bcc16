// Checkpoint support: a serializable copy of the merge protocol's full
// state. The neighbour tables are captured too — they were snapshotted from
// the environment when the protocol was created, and the environment's
// discovery tables have moved on since, so a restore cannot rebuild them.
// Member lists keep their exact (merge-history) order: Step charges Report/
// Decision messages by iterating them, so order is part of the trajectory.

package ghs

import (
	"slices"

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

// Adjacency holds the weighted neighbour tables as one CSR: node u's
// neighbours are Peer[Off[u]:Off[u+1]], with their link weights in the
// parallel Weight column, in the protocol's row order.
type Adjacency struct {
	Off    []int     `json:"off"`
	Peer   []int     `json:"peer"`
	Weight []float64 `json:"weight"`
}

func (a Adjacency) clone() Adjacency {
	return Adjacency{Off: slices.Clone(a.Off), Peer: slices.Clone(a.Peer), Weight: slices.Clone(a.Weight)}
}

// State returns a deep copy of the protocol's state, with fragments in
// root order so the serialized form is byte-stable.
func (p *Protocol) State() ProtocolState {
	st := ProtocolState{
		N:             p.n,
		W:             p.w.clone(),
		UF:            p.uf.State(),
		TreeAdj:       make([][]int, p.n),
		Done:          p.done,
		Edges:         append([]graph.Edge(nil), p.edges...),
		Phases:        p.phases,
		Messages:      p.messages,
		Transmissions: p.transmissions,
	}
	for i := range p.treeAdj {
		st.TreeAdj[i] = append([]int(nil), p.treeAdj[i]...)
	}
	for r, mem := range p.members {
		if mem == nil {
			continue
		}
		st.Fragments = append(st.Fragments, FragmentState{
			Root:    r,
			Head:    p.head[r],
			Size:    p.size[r],
			Members: append([]int(nil), mem...),
		})
	}
	return st
}

// RestoreProtocol rebuilds a protocol from a saved state. cfg supplies the
// accounting and merge hooks (its Neighbors field is ignored — the state
// carries the tables the protocol was built over).
func RestoreProtocol(cfg Config, st ProtocolState) *Protocol {
	p := &Protocol{
		cfg:           cfg,
		n:             st.N,
		w:             st.W.clone(),
		uf:            graph.RestoreUnionFind(st.UF),
		head:          make([]int, st.N),
		size:          make([]int, st.N),
		members:       make([][]int, st.N),
		treeAdj:       make([][]int, st.N),
		done:          st.Done,
		edges:         append([]graph.Edge(nil), st.Edges...),
		phases:        st.Phases,
		messages:      st.Messages,
		transmissions: st.Transmissions,
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
