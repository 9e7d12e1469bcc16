package core

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/rach"
	"repro/internal/units"
)

// log2ceil is the ST per-pulse ranking cost; the ops accounting of whole
// runs rides on its boundary behaviour, so pin the edges explicitly:
// minimum 1, exact at powers of two, and the step up at 2^k + 1.
func TestLog2CeilBoundaries(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{1, 1}, // minimum: a lone device still pays one comparison
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 4},
		{16, 4},
		{17, 5},
		{1024, 10},
		{1025, 11},
	}
	for _, c := range cases {
		if got := log2ceil(c.n); got != c.want {
			t.Errorf("log2ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// hear files one PS from p at device i, as the delivery phase would.
func hear(env *Env, i, p int, rssi units.DBm) {
	env.nbr.alloc()
	env.nbr.record(&rach.Delivery{To: i, Msg: rach.Message{From: p, RSSI: rssi}})
}

func TestCountDiscoveredLinks(t *testing.T) {
	cfg := PaperConfig(4, 1)
	positions := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	env, err := NewEnvAt(cfg, positions)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.DiscoveredLinks(); got != 0 {
		t.Fatalf("fresh env has %d links, want 0", got)
	}
	// Links are directed neighbour-table entries: observing the same peer
	// twice is still one entry; A→B and B→A are two.
	hear(env, 0, 1, -60)
	hear(env, 0, 1, -61)
	if got := env.DiscoveredLinks(); got != 1 {
		t.Errorf("after repeated observation: %d links, want 1", got)
	}
	hear(env, 1, 0, -60)
	hear(env, 2, 3, -70)
	if got := env.DiscoveredLinks(); got != 3 {
		t.Errorf("after three directed observations: %d links, want 3", got)
	}
	// A powered-off device's table is not coverage the network holds.
	env.Alive[2] = false
	if got := env.DiscoveredLinks(); got != 2 {
		t.Errorf("with device 2 off: %d links, want 2", got)
	}
}
