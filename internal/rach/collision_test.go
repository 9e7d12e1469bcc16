package rach

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

// The collision tally is the telemetry layer's window into arbitration: it
// must move exactly when a contention group loses everything — capture
// margin unmet, or SINR undetectable with contenders present — and stay put
// for clean decodes and lone sub-threshold arrivals.

func TestCollisionsCountedUnderCaptureMargin(t *testing.T) {
	// Two equal-power senders equidistant from a receiver: the strongest
	// never clears a 6 dB margin over the runner-up, so every broadcast is
	// one lost contention group at the receiver.
	positions := []geo.Point{{X: -30, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 0}}
	streams := xrand.NewStreams(7)
	ch := radio.NewChannel(radio.PaperDualSlope(), 0, radio.FadingNone, streams)
	tr := NewTransport(ch, positions, 23, -95, 0, nil)
	tr.CaptureMarginDB = 6
	svc := func(int) int { return 0 }

	if tr.Collisions() != 0 {
		t.Fatal("fresh transport must start at zero collisions")
	}
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		for _, d := range tr.BroadcastAll([]int{0, 1}, RACH1, KindPulse, svc, units.Slot(trial)) {
			if d.To == 2 {
				t.Fatal("equal-power senders must not decode under a 6 dB margin")
			}
		}
	}
	if got := tr.Collisions(); got != trials {
		t.Errorf("Collisions = %d, want %d (one lost group per broadcast)", got, trials)
	}

	// The tally is observability, not accounting: the only receptions are
	// the senders cleanly decoding each other (one arrival each — a sender
	// does not hear itself), never the collided group at the receiver.
	if got := tr.Counters().Rx[RACH1]; got != 2*trials {
		t.Errorf("Rx = %d, want %d (sender-to-sender decodes only)", got, 2*trials)
	}
}

func TestCollisionsCountedUnderSINR(t *testing.T) {
	// Equal-power equidistant senders in SINR mode: SINR ≈ 0 dB at the
	// receiver, far below the requirement — a collision per broadcast.
	positions := []geo.Point{{X: -30, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 0}}
	tr := sinrTransport(positions, 8)
	svc := func(int) int { return 0 }
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		tr.BroadcastAll([]int{0, 1}, RACH1, KindPulse, svc, units.Slot(trial))
	}
	if got := tr.Collisions(); got != trials {
		t.Errorf("Collisions = %d, want %d", got, trials)
	}
}

func TestNoCollisionOnCleanDecode(t *testing.T) {
	// One sender in range: a clean decode, no contention, no collision.
	positions := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 2000, Y: 0}, {X: 2010, Y: 0}}
	streams := xrand.NewStreams(9)
	ch := radio.NewChannel(radio.PaperDualSlope(), 0, radio.FadingNone, streams)
	tr := NewTransport(ch, positions, 23, -95, 0, nil)
	tr.CaptureMarginDB = 6
	svc := func(int) int { return 0 }
	// Two senders far apart so each receiver hears exactly one arrival —
	// the multi-sender resolve path with no actual contention anywhere.
	dels := tr.BroadcastAll([]int{0, 2}, RACH1, KindPulse, svc, 1)
	if len(dels) == 0 {
		t.Fatal("in-range receivers should decode")
	}
	if tr.Collisions() != 0 {
		t.Errorf("Collisions = %d after clean decodes, want 0", tr.Collisions())
	}
}
