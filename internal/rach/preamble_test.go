package rach

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

// contendedTransport builds a dense cluster where same-slot broadcasts
// always overlap at every receiver, with a given preamble pool.
func contendedTransport(nSenders, pool int, seed int64) (*Transport, []int) {
	var positions []geo.Point
	for i := 0; i < nSenders+1; i++ {
		positions = append(positions, geo.Point{X: float64(i), Y: 0})
	}
	streams := xrand.NewStreams(seed)
	ch := radio.NewChannel(radio.PaperDualSlope(), 0, radio.FadingNone, streams)
	tr := NewTransport(ch, positions, 23, -95, 0, nil)
	tr.CaptureMarginDB = 0 // strongest always captures within a preamble
	if pool > 1 {
		tr.Preambles = pool
		tr.PreambleSrc = streams.Get("preambles")
	}
	senders := make([]int, nSenders)
	for i := range senders {
		senders[i] = i + 1 // device 0 is the receiver under test
	}
	return tr, senders
}

func TestSinglePreambleDeliversAtMostOnePerReceiver(t *testing.T) {
	tr, senders := contendedTransport(6, 1, 1)
	svc := func(int) int { return 0 }
	for trial := 0; trial < 50; trial++ {
		seen := map[int]int{}
		for _, d := range tr.BroadcastAll(senders, RACH1, KindPulse, svc, units.Slot(trial)) {
			seen[d.To]++
		}
		for recv, count := range seen {
			if count > 1 {
				t.Fatalf("receiver %d decoded %d PSs on a single preamble", recv, count)
			}
		}
	}
}

func TestLargePoolDeliversMultiplePerReceiver(t *testing.T) {
	tr, senders := contendedTransport(6, 64, 2)
	svc := func(int) int { return 0 }
	multi := false
	for trial := 0; trial < 100; trial++ {
		seen := map[int]int{}
		for _, d := range tr.BroadcastAll(senders, RACH1, KindPulse, svc, units.Slot(trial)) {
			seen[d.To]++
		}
		for _, count := range seen {
			if count > 1 {
				multi = true
			}
		}
	}
	if !multi {
		t.Error("with 64 preambles some receiver should decode several PSs per slot")
	}
}

func TestLargerPoolDeliversMore(t *testing.T) {
	svc := func(int) int { return 0 }
	countFor := func(pool int) int {
		tr, senders := contendedTransport(8, pool, 3)
		total := 0
		for trial := 0; trial < 200; trial++ {
			total += len(tr.BroadcastAll(senders, RACH1, KindPulse, svc, units.Slot(trial)))
		}
		return total
	}
	if c1, c64 := countFor(1), countFor(64); c64 <= c1 {
		t.Errorf("64-preamble pool delivered %d <= single-preamble %d", c64, c1)
	}
}

func TestPreambleWithoutSourceFallsBack(t *testing.T) {
	// Preambles set but no source: behaves like a single preamble rather
	// than panicking.
	tr, senders := contendedTransport(4, 1, 4)
	tr.Preambles = 16 // no PreambleSrc
	svc := func(int) int { return 0 }
	for trial := 0; trial < 20; trial++ {
		seen := map[int]int{}
		for _, d := range tr.BroadcastAll(senders, RACH1, KindPulse, svc, units.Slot(trial)) {
			seen[d.To]++
		}
		for recv, count := range seen {
			if count > 1 {
				t.Fatalf("fallback delivered %d to %d", count, recv)
			}
		}
	}
}

func TestPreambleTxCountingUnchanged(t *testing.T) {
	tr, senders := contendedTransport(5, 64, 5)
	svc := func(int) int { return 0 }
	tr.BroadcastAll(senders, RACH1, KindPulse, svc, 1)
	if got := tr.Counters().Tx[RACH1]; got != 5 {
		t.Errorf("tx = %d, want 5 (one per sender regardless of preambles)", got)
	}
}
