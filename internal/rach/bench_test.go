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
	tr := NewTransport(ch, positions, 23, -95, 20)
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

func BenchmarkBroadcastSingle(b *testing.B) {
	streams := xrand.NewStreams(2)
	positions := geo.UniformDeployment(400, geo.Square(283), streams.Get("deploy"))
	ch := radio.PaperChannel(streams)
	tr := NewTransport(ch, positions, 23, -95, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Broadcast(i%400, RACH1, KindPulse, 0, units.Slot(i))
	}
}

// benchTransport builds a transport at the paper's density with per-sender
// streams (the core simulator's configuration), cached or direct.
func benchTransport(n int, direct bool) *Transport {
	streams := xrand.NewStreams(int64(n))
	positions := geo.UniformDeployment(n, geo.ScaledSquare(n, 50, 100), streams.Get("deploy"))
	ch := radio.PaperChannel(streams)
	tr := NewTransport(ch, positions, 23, -95, 20)
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

// TestBroadcastCachedAllocs pins the cached steady-state delivery path that
// BenchmarkBroadcastCached measures to zero allocations per Broadcast, at
// each of its sizes. The first pass over every sender grows the reused
// delivery buffers; after it nothing may allocate.
func TestBroadcastCachedAllocs(t *testing.T) {
	for _, n := range []int{200, 1000, 5000} {
		tr := benchTransport(n, false)
		for i := 0; i < n; i++ {
			tr.Broadcast(i, RACH1, KindPulse, 0, units.Slot(i))
		}
		i := 0
		avg := testing.AllocsPerRun(n, func() {
			tr.Broadcast(i%n, RACH1, KindPulse, 0, units.Slot(n+i))
			i++
		})
		if avg != 0 {
			t.Errorf("n=%d: cached Broadcast %.2f allocs/op, want 0", n, avg)
		}
	}
}

// BenchmarkBroadcastCached / BenchmarkBroadcastDirect measure one Broadcast
// on the steady-state delivery path at paper density: cached walks the link
// index's packed rows with reused delivery buffers (the zero-allocation
// path), direct re-derives the candidate set and pair geometry per call.
func BenchmarkBroadcastCached(b *testing.B) { benchBroadcast(b, false) }

func BenchmarkBroadcastDirect(b *testing.B) { benchBroadcast(b, true) }

// benchBroadcast builds each size's transport once per sub-benchmark; every
// call (the one-iteration probe, each -count repeat) broadcasts on from the
// sender and slot the previous call stopped at.
func benchBroadcast(b *testing.B, direct bool) {
	for _, n := range []int{200, 1000, 5000} {
		var tr *Transport
		next := 0
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if tr == nil {
				tr = benchTransport(n, direct)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Broadcast(next%n, RACH1, KindPulse, 0, units.Slot(next))
				next++
			}
		})
	}
}
