package rach

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

func BenchmarkBroadcastAll(b *testing.B) {
	streams := xrand.NewStreams(1)
	positions := geo.UniformDeployment(400, geo.Square(283), streams.Get("deploy"))
	ch := radio.PaperChannel(streams)
	tr := NewTransport(ch, positions, 23, -95, 20, nil)
	tr.CaptureMarginDB = 6
	senders := make([]int, 40)
	for i := range senders {
		senders[i] = i * 10
	}
	svc := func(int) int { return 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BroadcastAll(senders, RACH1, KindPulse, svc, units.Slot(i))
	}
}

// benchTransport builds a transport at the paper's density with per-sender
// streams (the core simulator's configuration), cached or direct.
func benchTransport(n int, direct bool) *Transport {
	streams := xrand.NewStreams(int64(n))
	positions := geo.UniformDeployment(n, geo.ScaledSquare(n, 50, 100), streams.Get("deploy"))
	ch := radio.PaperChannel(streams)
	tr := NewTransport(ch, positions, 23, -95, 20, nil)
	if direct {
		tr.DisableLinkIndex()
	}
	tr.CaptureMarginDB = 6
	tr.SenderStreams = make([]*xrand.Stream, n)
	for i := range positions {
		tr.SenderStreams[i] = streams.Get(fmt.Sprintf("pulse-%d", i))
	}
	return tr
}

// broadcastWaves drives one transport through consecutive BroadcastAll
// waves, the entry point whose plan/eval/resolve steps the run engine
// composes. Wave w transmits from the n/100 devices w mod 100, w mod 100 +
// 100, ...: id-ascending like the engine's fired lists, so 100 consecutive
// waves cover every device once.
type broadcastWaves struct {
	tr      *Transport
	n, w    int
	senders []int
}

func newBroadcastWaves(n int, direct bool) *broadcastWaves {
	return &broadcastWaves{tr: benchTransport(n, direct), n: n}
}

func (bw *broadcastWaves) next() {
	bw.senders = bw.senders[:0]
	for s := bw.w % 100; s < bw.n; s += 100 {
		bw.senders = append(bw.senders, s)
	}
	bw.tr.BroadcastAll(bw.senders, RACH1, KindPulse, zeroService, units.Slot(bw.w))
	bw.w++
}

func zeroService(int) int { return 0 }

// TestBroadcastCachedAllocs pins the cached steady-state delivery path that
// BenchmarkBroadcastCached measures to zero allocations per BroadcastAll
// wave, at each of its sizes. The warm-up waves (two rotations over every
// sender) grow the reused plan, arrival and delivery buffers; after them
// nothing may allocate.
func TestBroadcastCachedAllocs(t *testing.T) {
	for _, n := range []int{200, 1000, 5000} {
		bw := newBroadcastWaves(n, false)
		for i := 0; i < 200; i++ {
			bw.next()
		}
		if avg := testing.AllocsPerRun(100, bw.next); avg != 0 {
			t.Errorf("n=%d: cached BroadcastAll %.3f allocs/wave, want 0", n, avg)
		}
	}
}

// BenchmarkBroadcastCached / BenchmarkBroadcastDirect measure one
// BroadcastAll wave of n/100 senders on the steady-state delivery path at
// paper density: cached walks the link index's packed rows with reused
// buffers (the zero-allocation path), direct re-derives the candidate set
// and pair geometry per sender.
func BenchmarkBroadcastCached(b *testing.B) { benchBroadcast(b, false) }

func BenchmarkBroadcastDirect(b *testing.B) { benchBroadcast(b, true) }

// benchBroadcast builds each size's transport once per sub-benchmark; every
// call (the one-iteration probe, each -count repeat) transmits on from the
// wave the previous call stopped at.
func benchBroadcast(b *testing.B, direct bool) {
	for _, n := range []int{200, 1000, 5000} {
		var bw *broadcastWaves
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if bw == nil {
				bw = newBroadcastWaves(n, direct)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bw.next()
			}
		})
	}
}
