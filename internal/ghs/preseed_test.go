package ghs

import (
	"testing"

	"repro/internal/graph"
)

// Preseed must union the given forest for free (no charges, no phase) and
// re-elect min-id heads, leaving the protocol to finish the merge from
// there at the normal message cost.
func TestPreseed(t *testing.T) {
	// Path graph 0-1-2-3-4 with increasing weights; preseed the two
	// surviving subtrees {0,1} and {3,4} of a broken tree.
	nbrs := [][]Neighbor{
		{{Peer: 1, Weight: 10}},
		{{Peer: 0, Weight: 10}, {Peer: 2, Weight: 20}},
		{{Peer: 1, Weight: 20}, {Peer: 3, Weight: 30}},
		{{Peer: 2, Weight: 30}, {Peer: 4, Weight: 40}},
		{{Peer: 3, Weight: 40}},
	}
	var messages int
	p := NewProtocol(Config{
		Neighbors: nbrs,
		OnMessage: func(MessageKind, int, int, int) { messages++ },
	})
	p.Preseed([]graph.Edge{
		{U: 0, V: 1, Weight: 10},
		{U: 3, V: 4, Weight: 40},
	})
	if messages != 0 {
		t.Errorf("preseeding charged %d messages, want 0", messages)
	}
	if got := p.Fragments(); got != 3 {
		t.Errorf("fragments after preseed = %d, want 3 ({0,1} {2} {3,4})", got)
	}
	if ids := p.FragmentIDs(nil); ids[0] != ids[1] || ids[3] != ids[4] || ids[1] == ids[2] {
		t.Error("preseeded fragment structure wrong")
	}

	for p.Step() {
	}
	res := p.Result()
	if p.Fragments() != 1 {
		t.Fatalf("merge did not complete: %d fragments", p.Fragments())
	}
	if len(res.Edges) != 4 {
		t.Errorf("final forest has %d edges, want 4", len(res.Edges))
	}
	if messages == 0 {
		t.Error("finishing the merge charged no messages")
	}
	// Min-id head election: the single final fragment is headed by 0.
	for _, h := range res.Head {
		if h != 0 {
			t.Errorf("final head %d, want 0", h)
		}
	}
	// The preseeded edges ride along into the result uncounted.
	if res.Phases == 0 {
		t.Error("no merge phase ran")
	}
}

// Preseeding redundant or out-of-range edges must be a no-op, not a panic.
func TestPreseedIgnoresBadEdges(t *testing.T) {
	nbrs := [][]Neighbor{
		{{Peer: 1, Weight: 1}},
		{{Peer: 0, Weight: 1}},
	}
	p := NewProtocol(Config{Neighbors: nbrs})
	p.Preseed([]graph.Edge{
		{U: 0, V: 1},
		{U: 1, V: 0},  // already same fragment
		{U: 0, V: 9},  // out of range
		{U: -1, V: 1}, // out of range
	})
	if got := p.Fragments(); got != 1 {
		t.Errorf("fragments = %d, want 1", got)
	}
	if p.Step() {
		t.Error("complete preseeded forest still made progress")
	}
	if !p.Done() {
		t.Error("protocol not done")
	}
}
