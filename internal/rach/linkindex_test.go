package rach

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

// noisyTransport builds a transport with Table I-like stochastic terms and
// per-sender streams, seeded so two calls with the same seed are draw-for-
// draw identical — the harness for cached-vs-direct differential tests.
func noisyTransport(positions []geo.Point, seed int64, direct bool) *Transport {
	streams := xrand.NewStreams(seed)
	ch := radio.NewChannel(radio.PaperDualSlope(), 10, radio.FadingRayleigh, streams)
	tr := NewTransport(ch, positions, 23, -95, 20)
	if direct {
		tr.DisableLinkIndex()
	}
	tr.CaptureMarginDB = 6
	tr.Preambles = 4
	tr.PreambleSrc = streams.Get("preambles")
	tr.SenderStreams = make([]*xrand.Stream, len(positions))
	for i := range positions {
		tr.SenderStreams[i] = streams.Get(fmt.Sprintf("pulse-%d", i))
	}
	return tr
}

func testPositions(n int, seed int64) []geo.Point {
	return geo.UniformDeployment(n, geo.ScaledSquare(n, 50, 100), xrand.NewStream(seed))
}

// TestLinkIndexGeometry pins the cache contents against the direct
// derivation for every ordered pair: in-range pairs carry Point.Dist's and
// MeanReceivedPower's exact bits, out-of-range pairs are absent.
func TestLinkIndexGeometry(t *testing.T) {
	positions := testPositions(120, 7)
	tr := noisyTransport(positions, 7, false)
	reach := float64(tr.CandidateRadius())
	for i := range positions {
		for j := range positions {
			if i == j {
				continue
			}
			d, mean, ok := tr.LinkGeometry(i, j)
			inRange := positions[i].Dist2(positions[j]) <= reach*reach
			if ok != inRange {
				t.Fatalf("pair (%d,%d): cached=%v, in range=%v", i, j, ok, inRange)
			}
			if !ok {
				continue
			}
			wantD := units.Metre(positions[i].Dist(positions[j]))
			if d != wantD {
				t.Fatalf("pair (%d,%d): cached distance %v, want %v", i, j, d, wantD)
			}
			if want := tr.Channel.MeanReceivedPower(tr.TxPower, wantD); mean != want {
				t.Fatalf("pair (%d,%d): cached mean %v, want %v", i, j, mean, want)
			}
		}
	}
	if tr.idx.Pairs() == 0 {
		t.Fatal("index is empty")
	}
}

// TestCachedVsDirectTransport is the transport-level differential: the same
// seeded sequence of Broadcast, Unicast and BroadcastAll waves over cached
// and direct transports must produce byte-identical deliveries and counters.
func TestCachedVsDirectTransport(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		positions := testPositions(80, seed)
		cached := noisyTransport(positions, seed, false)
		direct := noisyTransport(positions, seed, true)
		if cached.idx == nil || direct.idx != nil {
			t.Fatal("index presence is backwards")
		}
		service := func(s int) int { return s % 3 }
		copyDels := func(d []Delivery) []Delivery { return append([]Delivery(nil), d...) }
		for slot := units.Slot(1); slot <= 40; slot++ {
			from := int(slot) % len(positions)
			a := copyDels(cached.Broadcast(from, RACH1, KindPulse, service(from), slot))
			b := copyDels(direct.Broadcast(from, RACH1, KindPulse, service(from), slot))
			compareDeliveries(t, "Broadcast", slot, a, b)

			to := (from + 1 + int(slot)) % len(positions)
			ma, oka := cached.Unicast(from, to, RACH2, KindConnect, 0, slot)
			mb, okb := direct.Unicast(from, to, RACH2, KindConnect, 0, slot)
			if oka != okb || ma != mb {
				t.Fatalf("seed %d slot %d: Unicast diverged: (%+v,%v) vs (%+v,%v)",
					seed, slot, ma, oka, mb, okb)
			}

			senders := []int{from, (from + 7) % len(positions), (from + 29) % len(positions)}
			a = copyDels(cached.BroadcastAll(senders, RACH1, KindPulse, service, slot))
			b = copyDels(direct.BroadcastAll(senders, RACH1, KindPulse, service, slot))
			compareDeliveries(t, "BroadcastAll", slot, a, b)
		}
		if cached.Counters() != direct.Counters() {
			t.Fatalf("seed %d: counters diverged: %+v vs %+v",
				seed, cached.Counters(), direct.Counters())
		}
		for i := range positions {
			for j := range positions {
				if i != j && cached.MeanRSSI(i, j) != direct.MeanRSSI(i, j) {
					t.Fatalf("seed %d: MeanRSSI(%d,%d) diverged", seed, i, j)
				}
			}
			a, b := cached.DeterministicNeighbors(i), direct.DeterministicNeighbors(i)
			if len(a) != len(b) {
				t.Fatalf("seed %d: DeterministicNeighbors(%d): %v vs %v", seed, i, a, b)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("seed %d: DeterministicNeighbors(%d) order: %v vs %v", seed, i, a, b)
				}
			}
		}
	}
}

// TestCachedVsDirectSINR repeats the wave differential under the SINR
// detector, where sub-threshold arrivals interfere and the reused
// interferer buffer is on the hot path.
func TestCachedVsDirectSINR(t *testing.T) {
	positions := testPositions(60, 11)
	for _, direct := range []bool{false, true} {
		tr := noisyTransport(positions, 11, direct)
		tr.SINRMode = true
		tr.NoiseFloor = radio.NoiseFloor(radio.PRACHBandwidthHz, 9)
		tr.RequiredSNRDB = float64(units.DBm(-95) - tr.NoiseFloor)
		service := func(s int) int { return 0 }
		var trace []Delivery
		for slot := units.Slot(1); slot <= 30; slot++ {
			senders := []int{int(slot) % 60, (int(slot) * 13) % 60, (int(slot) * 29) % 60}
			trace = append(trace, tr.BroadcastAll(senders, RACH1, KindPulse, service, slot)...)
		}
		if direct {
			want := trace
			tr2 := noisyTransport(positions, 11, false)
			tr2.SINRMode = true
			tr2.NoiseFloor = tr.NoiseFloor
			tr2.RequiredSNRDB = tr.RequiredSNRDB
			var got []Delivery
			for slot := units.Slot(1); slot <= 30; slot++ {
				senders := []int{int(slot) % 60, (int(slot) * 13) % 60, (int(slot) * 29) % 60}
				got = append(got, tr2.BroadcastAll(senders, RACH1, KindPulse, service, slot)...)
			}
			compareDeliveries(t, "SINR", 0, got, want)
		}
	}
}

// TestInvalidateRebuild moves devices in place and proves Invalidate resyncs
// the cache: after the move the transport behaves exactly like a fresh one
// built at the new positions (same seeds), and without Invalidate the stale
// mean powers would differ.
func TestInvalidateRebuild(t *testing.T) {
	positions := testPositions(50, 5)
	tr := noisyTransport(positions, 5, false)
	before, _, _ := tr.LinkGeometry(0, 1)

	// Drift every device and rebuild.
	drift := xrand.NewStream(99)
	for i := range positions {
		positions[i].X += drift.Uniform(-20, 20)
		positions[i].Y += drift.Uniform(-20, 20)
	}
	tr.Invalidate()

	fresh := noisyTransport(positions, 5, false)
	for i := range positions {
		for j := range positions {
			if i == j {
				continue
			}
			d1, m1, ok1 := tr.LinkGeometry(i, j)
			d2, m2, ok2 := fresh.LinkGeometry(i, j)
			if d1 != d2 || m1 != m2 || ok1 != ok2 {
				t.Fatalf("pair (%d,%d) after Invalidate: (%v,%v,%v) vs fresh (%v,%v,%v)",
					i, j, d1, m1, ok1, d2, m2, ok2)
			}
		}
	}
	if after, _, ok := tr.LinkGeometry(0, 1); ok && after == before {
		t.Log("pair (0,1) distance unchanged by drift — coincidence, not a bug")
	}
}

func compareDeliveries(t *testing.T, what string, slot units.Slot, a, b []Delivery) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s slot %d: %d vs %d deliveries", what, slot, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s slot %d delivery %d: %+v vs %+v", what, slot, i, a[i], b[i])
		}
	}
}

// TestReorderIdentityIsFree pins Reorder's early return: rows already packed
// in the requested order — the identity on a fresh build, which a
// single-shard engine asks for — are left in place with no copy, while a
// real permutation still repacks without changing any row.
func TestReorderIdentityIsFree(t *testing.T) {
	positions := testPositions(200, 5)
	tr := noisyTransport(positions, 5, false)
	n := len(positions)
	identity := make([]int32, n)
	for i := range identity {
		identity[i] = int32(i)
	}
	ids := &tr.idx.ids[0]
	if allocs := testing.AllocsPerRun(10, func() { tr.ReorderLinkIndex(identity) }); allocs != 0 {
		t.Errorf("identity reorder allocated %.0f times, want 0", allocs)
	}
	if &tr.idx.ids[0] != ids {
		t.Error("identity reorder moved the packed rows")
	}

	want := tr.idx.Clone()
	reversed := make([]int32, n)
	for i := range reversed {
		reversed[i] = int32(n - 1 - i)
	}
	tr.ReorderLinkIndex(reversed)
	if &tr.idx.ids[0] == ids {
		t.Error("a real permutation did not repack the rows")
	}
	for i := 0; i < n; i++ {
		gotIDs, gotDist, gotMean := tr.idx.Row(i)
		wantIDs, wantDist, wantMean := want.Row(i)
		if fmt.Sprint(gotIDs, gotDist, gotMean) != fmt.Sprint(wantIDs, wantDist, wantMean) {
			t.Fatalf("row %d changed under reorder", i)
		}
	}
	// Reordering back to the identity must repack again: the rows are no
	// longer laid out in id order.
	tr.ReorderLinkIndex(identity)
	if !tr.idx.packedIn(identity) {
		t.Error("reorder to the identity left the rows out of id order")
	}
}
