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
	tr := NewTransport(ch, positions, 23, -95, 20, nil)
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
	reach := float64(tr.reach)
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
// seeded sequence of one-sender waves (plain threshold mode) on both codecs
// and three-sender waves (capture mode) over cached and direct transports
// must produce byte-identical deliveries and counters.
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
			one := []int{from}
			a := copyDels(cached.BroadcastAll(one, RACH1, KindPulse, service, slot))
			b := copyDels(direct.BroadcastAll(one, RACH1, KindPulse, service, slot))
			compareDeliveries(t, "one-sender RACH1", slot, a, b)

			one[0] = (from + 1 + int(slot)) % len(positions)
			a = copyDels(cached.BroadcastAll(one, RACH2, KindConnect, service, slot))
			b = copyDels(direct.BroadcastAll(one, RACH2, KindConnect, service, slot))
			compareDeliveries(t, "one-sender RACH2", slot, a, b)

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

func compareDeliveries(t *testing.T, what string, slot units.Slot, a, b []Delivery) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s slot %d: %d vs %d deliveries", what, slot, len(a), len(b))
	}
	for i := range a {
		// The cached side carries its link-index entry; the direct side
		// has none to carry.
		if a[i].To != b[i].To || a[i].Msg != b[i].Msg {
			t.Fatalf("%s slot %d delivery %d: %+v vs %+v", what, slot, i, a[i], b[i])
		}
	}
}

// TestLinkIndexMirrorInvolution pins the two views the transpose builds
// without a sort or a search: every entry's mirror mirrors back to it, names
// the entry's row owner, and sits in the row of the peer the entry names;
// every row's by-id list is ascending; and a delivery's carried entry maps
// to the same receiver entry the search finds.
func TestLinkIndexMirrorInvolution(t *testing.T) {
	for _, n := range []int{50, 400, 2000} {
		for _, seed := range []int64{1, 2, 3} {
			positions := testPositions(n, seed)
			tr := noisyTransport(positions, seed, false)
			x := tr.idx
			for i := 0; i < n; i++ {
				lo, hi := x.off[i], x.off[i+1]
				for e := lo; e < hi; e++ {
					m := x.Mirror(e)
					if x.Mirror(m) != e {
						t.Fatalf("n=%d seed=%d: rev[rev[%d]] = %d", n, seed, e, x.Mirror(m))
					}
					if x.Peer(m) != i {
						t.Fatalf("n=%d seed=%d: entry %d of row %d mirrors to %d, which names %d", n, seed, e, i, m, x.Peer(m))
					}
					j := x.Peer(e)
					if m < x.off[j] || m >= x.off[j+1] {
						t.Fatalf("n=%d seed=%d: mirror %d of (%d→%d) is outside row %d", n, seed, m, i, j, j)
					}
				}
				byID := x.ByID(i)
				for k, e := range byID {
					if int(e) < lo || int(e) >= hi {
						t.Fatalf("n=%d seed=%d: row %d's by-id list holds entry %d of another row", n, seed, i, e)
					}
					if k > 0 && x.Peer(int(byID[k-1])) >= x.Peer(int(e)) {
						t.Fatalf("n=%d seed=%d: row %d's by-id list is not ascending", n, seed, i)
					}
				}
			}
			service := func(s int) int { return 0 }
			for slot := units.Slot(1); slot <= 5; slot++ {
				senders := []int{int(slot) % n, (int(slot) * 17) % n}
				for _, d := range tr.BroadcastAll(senders, RACH1, KindPulse, service, slot) {
					carried, ok := x.EntryOf(&d)
					searched, found := x.Entry(d.To, d.Msg.From)
					if !ok || !found || carried != searched {
						t.Fatalf("n=%d seed=%d: delivery %d→%d maps to entry %d/%v, search finds %d/%v",
							n, seed, d.Msg.From, d.To, carried, ok, searched, found)
					}
				}
			}
		}
	}
}
