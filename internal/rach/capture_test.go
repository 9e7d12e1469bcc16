package rach

import (
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// exactWinner is the capture rule on exact powers, as Resolve applied it
// before bounds: every gain computed, the first strongest arrival decodes
// iff it clears the runner-up by margin.
func exactWinner(arr []groupedArrival, margin float64) (win int, rssi units.DBm) {
	ex := make([]groupedArrival, len(arr))
	for i := range arr {
		ex[i] = arr[i]
		ex[i].rssi, ex[i].u = arr[i].exact(), 0
	}
	best, second := strongest(ex)
	if second >= 0 && float64(ex[best].rssi-ex[second].rssi) < margin {
		return -1, 0
	}
	return best, ex[best].rssi
}

// adversarialGroup draws a contention group built to sit on the bounds'
// edges: powers within a few dB so intervals overlap, uniforms from the
// top bucket (no lower bound), the middle and the deep-fade end, exact
// arrivals mixed with deferred ones, and exact ties — a repeated deferred
// arrival, and an exact arrival equal to a deferred one.
func adversarialGroup(r *xrand.Stream) []groupedArrival {
	n := 2 + r.Intn(5)
	arr := make([]groupedArrival, n)
	for i := range arr {
		a := arrival{recv: 1, link: int32(i + 1), rssi: units.DBm(-90 + 6*r.Float64())}
		switch r.Intn(4) {
		case 0:
			a.u = 31.0/32 + r.Float64()/32 // top bucket
		case 1:
			a.u = math.Ldexp(1+r.Float64(), -1-r.Intn(62)) // any octave
		default:
			a.u = r.RayleighUniform()
		}
		if a.u >= 1 {
			a.u = math.Nextafter(1, 0)
		}
		switch r.Intn(6) {
		case 0: // exact arrival
			a.rssi, a.u = a.exact(), 0
		case 1: // exact tie with an earlier deferred arrival
			if i > 0 {
				a = arr[r.Intn(i)].arrival
			}
		case 2: // exact arrival equal to an earlier one's exact power
			if i > 0 {
				a.rssi, a.u = arr[r.Intn(i)].exact(), 0
			}
		}
		arr[i] = groupedArrival{arrival: a, sender: int32(i)}
	}
	return arr
}

// TestCaptureWinnerMatchesExact is the bounds path's differential check:
// on adversarial groups, captureWinner decodes the same arrival with the
// same power, or collides, exactly when the exact rule does — at margin 0,
// at typical margins, and at margins one ulp either side of the exact
// best-minus-runner-up gap, where the bounds must defer to the exact rule.
// It also checks that groups are decided on bounds both ways and left open,
// so no branch goes untested.
func TestCaptureWinnerMatchesExact(t *testing.T) {
	r := xrand.NewStream(17)
	var boundCollide, boundCapture, open int
	groups := 20000
	if testing.Short() {
		groups = 2000
	}
	for g := 0; g < groups; g++ {
		arr := adversarialGroup(r)
		margins := []float64{0, 3, 6, 20 * r.Float64()}
		if best, second := strongest(exactCopy(arr)); second >= 0 {
			ex := exactCopy(arr)
			gap := float64(ex[best].rssi - ex[second].rssi)
			margins = append(margins, gap, math.Nextafter(gap, math.Inf(1)), math.Nextafter(gap, math.Inf(-1)))
		}
		for _, m := range margins {
			if m < 0 {
				continue
			}
			wantWin, wantRSSI := exactWinner(arr, m)
			work := append([]groupedArrival(nil), arr...)
			tr := &Transport{CaptureMarginDB: m}
			win := tr.captureWinner(work)
			if win != wantWin {
				t.Fatalf("group %d margin %v: winner %d, exact rule %d\n%+v", g, m, win, wantWin, arr)
			}
			if win >= 0 && work[win].exact() != wantRSSI {
				t.Fatalf("group %d margin %v: winner power %v, exact %v", g, m, work[win].exact(), wantRSSI)
			}
			wantCol := uint64(0)
			if wantWin < 0 {
				wantCol = 1
			}
			if tr.Collisions() != wantCol {
				t.Fatalf("group %d margin %v: %d collisions counted, want %d", g, m, tr.Collisions(), wantCol)
			}
			switch {
			case allExact(arr):
			case !allExact(work): // the open branch computes every gain
				if win < 0 {
					boundCollide++
				} else {
					boundCapture++
				}
			default:
				open++
			}
		}
	}
	if boundCollide == 0 || boundCapture == 0 || open == 0 {
		t.Fatalf("branches not all reached: %d collisions and %d captures on bounds, %d open", boundCollide, boundCapture, open)
	}
}

func exactCopy(arr []groupedArrival) []groupedArrival {
	ex := append([]groupedArrival(nil), arr...)
	for i := range ex {
		ex[i].rssi, ex[i].u = ex[i].exact(), 0
	}
	return ex
}

func allExact(arr []groupedArrival) bool {
	for i := range arr {
		if arr[i].u != 0 {
			return false
		}
	}
	return true
}

// TestEvalDeferredMatchesSampleAtLeast pins the capture-wave loop to the
// per-sample channel path draw for draw: the arrivals it keeps are the
// samples SampleAtLeast accepts, each with the same exact power, and both
// leave the sender's stream at the same cursor — with shadowing and
// without.
func TestEvalDeferredMatchesSampleAtLeast(t *testing.T) {
	positions := testPositions(150, 5)
	for _, sigma := range []float64{10, 0} {
		tr := noisyTransport(positions, 5, false)
		tr.Channel.ShadowSigmaDB = sigma
		ref := noisyTransport(positions, 5, false)
		ref.Channel.ShadowSigmaDB = sigma
		deferred := 0
		for round := 0; round < 20; round++ {
			for s := range positions {
				got := tr.evalDeferred(s, nil)
				ids, _, mean := ref.idx.Row(s)
				var want []units.DBm
				var wantRecv []int32
				for q, j := range ids {
					if rx, ok := ref.Channel.SampleAtLeast(ref.SenderStreams[s], mean[q], ref.Threshold); ok {
						want = append(want, rx)
						wantRecv = append(wantRecv, j)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("σ=%v sender %d: %d arrivals, SampleAtLeast kept %d", sigma, s, len(got), len(want))
				}
				for i := range got {
					if got[i].recv != wantRecv[i] || got[i].exact() != want[i] {
						t.Fatalf("σ=%v sender %d arrival %d: (%d, %v), want (%d, %v)", sigma, s, i, got[i].recv, got[i].exact(), wantRecv[i], want[i])
					}
					if got[i].u != 0 {
						deferred++
					}
				}
				if tr.SenderStreams[s].Pos() != ref.SenderStreams[s].Pos() {
					t.Fatalf("σ=%v sender %d: cursor %d, SampleAtLeast left %d", sigma, s, tr.SenderStreams[s].Pos(), ref.SenderStreams[s].Pos())
				}
			}
		}
		if deferred == 0 {
			t.Fatalf("σ=%v: no arrival deferred its gain", sigma)
		}
	}
}

// TestDeferredWavesMatchExact runs dense contention waves — many senders,
// one preamble and a pool of four, several margins — through a transport
// that defers gains and one that cannot (direct geometry computes every
// power exactly), comparing deliveries, counters and collisions.
func TestDeferredWavesMatchExact(t *testing.T) {
	positions := testPositions(200, 9)
	for _, pool := range []int{1, 4} {
		for _, margin := range []float64{0, 1, 6} {
			fast := noisyTransport(positions, 9, false)
			slow := noisyTransport(positions, 9, true)
			for _, tr := range []*Transport{fast, slow} {
				tr.Preambles = pool
				tr.CaptureMarginDB = margin
			}
			service := func(s int) int { return s % 2 }
			for slot := units.Slot(1); slot <= 30; slot++ {
				var senders []int
				for s := int(slot) % 5; s < len(positions); s += 5 {
					senders = append(senders, s)
				}
				a := append([]Delivery(nil), fast.BroadcastAll(senders, RACH1, KindPulse, service, slot)...)
				b := slow.BroadcastAll(senders, RACH1, KindPulse, service, slot)
				if !fast.plan.deferred || slow.plan.deferred {
					t.Fatal("only the indexed transport should defer gains")
				}
				compareDeliveries(t, "dense wave", slot, a, b)
			}
			if fast.Counters() != slow.Counters() || fast.Collisions() != slow.Collisions() {
				t.Fatalf("pool %d margin %v: counters %+v/%d, exact %+v/%d", pool, margin,
					fast.Counters(), fast.Collisions(), slow.Counters(), slow.Collisions())
			}
			if margin > 0 && fast.Collisions() == 0 { // at margin 0 only exact ties collide
				t.Fatalf("pool %d margin %v: no collisions to compare", pool, margin)
			}
		}
	}
}
