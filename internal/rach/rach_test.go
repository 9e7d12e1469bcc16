package rach

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

func quietTransport(positions []geo.Point) *Transport {
	streams := xrand.NewStreams(1)
	ch := radio.NewChannel(radio.PaperDualSlope(), 0, radio.FadingNone, streams)
	return NewTransport(ch, positions, 23, -95, 0, nil)
}

// broadcastOne transmits a one-sender BroadcastAll wave: a single sender
// cannot collide, so the wave runs in plain threshold mode.
func broadcastOne(tr *Transport, from int, codec Codec, kind Kind, service int, slot units.Slot) []Delivery {
	return tr.BroadcastAll([]int{from}, codec, kind, func(int) int { return service }, slot)
}

func TestBroadcastDetectionByDistance(t *testing.T) {
	// Deterministic range at 23 dBm / -95 dBm is ~89.1 m.
	positions := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 200, Y: 0}}
	tr := quietTransport(positions)
	dels := broadcastOne(tr, 0, RACH1, KindPulse, 0, 1)
	if len(dels) != 1 || dels[0].To != 1 {
		t.Fatalf("deliveries = %+v, want only device 1", dels)
	}
	m := dels[0].Msg
	if m.From != 0 || m.Codec != RACH1 || m.Kind != KindPulse || m.Slot != 1 {
		t.Errorf("message fields wrong: %+v", m)
	}
	if !m.RSSI.AtLeast(-95) {
		t.Errorf("delivered RSSI %v below threshold", m.RSSI)
	}
}

func TestCountersTxOncePerBroadcast(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}}
	tr := quietTransport(positions)
	broadcastOne(tr, 0, RACH1, KindPulse, 0, 1)
	broadcastOne(tr, 1, RACH2, KindConnect, 0, 2)
	c := tr.Counters()
	if c.Tx[RACH1] != 1 || c.Tx[RACH2] != 1 {
		t.Errorf("tx counters = %+v", c.Tx)
	}
	if c.Rx[RACH1] != 3 {
		t.Errorf("RACH1 rx = %d, want 3 (all others in range)", c.Rx[RACH1])
	}
	if c.TotalTx() != 2 {
		t.Errorf("TotalTx = %d", c.TotalTx())
	}
	if c.TotalRx() != c.Rx[RACH1]+c.Rx[RACH2] {
		t.Error("TotalRx mismatch")
	}
}

// A one-sender wave runs in plain threshold mode even with a preamble pool
// configured: it reaches the in-range device only, carries the sender's
// service tag, and draws no preamble.
func TestOneSenderWave(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 500, Y: 0}}
	tr := quietTransport(positions)
	tr.CaptureMarginDB = 6
	tr.Preambles = 64
	tr.PreambleSrc = xrand.NewStreams(9).Get("preamble")
	dels := broadcastOne(tr, 0, RACH2, KindConnect, 7, 5)
	if len(dels) != 1 || dels[0].To != 1 {
		t.Fatalf("deliveries = %+v, want only device 1 (500 m is out of range at 23 dBm)", dels)
	}
	if m := dels[0].Msg; m.From != 0 || m.Service != 7 || m.Kind != KindConnect || m.Codec != RACH2 {
		t.Errorf("message wrong: %+v", m)
	}
	if c := tr.Counters(); c.Tx[RACH2] != 1 || c.Rx[RACH2] != 1 {
		t.Errorf("counters = %+v, want one RACH2 transmission and one reception", c)
	}
	if pos := tr.PreambleSrc.Pos(); pos != 0 {
		t.Errorf("one-sender wave drew %d preambles, want 0", pos)
	}
}

func TestMeanRSSIMatchesChannel(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	tr := quietTransport(positions)
	want := units.DBm(23 - 80) // PL(10 m) = 80 dB
	if got := tr.MeanRSSI(0, 1); got != want {
		t.Errorf("MeanRSSI = %v, want %v", got, want)
	}
	if tr.MeanRSSI(0, 1) != tr.MeanRSSI(1, 0) {
		t.Error("MeanRSSI should be symmetric")
	}
}

func TestDeterministicNeighbors(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 85, Y: 0}, {X: 95, Y: 0}}
	tr := quietTransport(positions)
	got := tr.DeterministicNeighbors(0)
	// Range ~89.1 m: devices at 30 and 85 are in, 95 is out.
	want := map[int]bool{1: true, 2: true}
	if len(got) != 2 {
		t.Fatalf("neighbors = %v, want [1 2]", got)
	}
	for _, j := range got {
		if !want[j] {
			t.Fatalf("unexpected neighbor %d", j)
		}
	}
}

func TestShadowingMakesDetectionProbabilistic(t *testing.T) {
	streams := xrand.NewStreams(2)
	ch := radio.NewChannel(radio.PaperDualSlope(), 10, radio.FadingNone, streams)
	// 89.1 m is the zero-noise detection boundary: with 10 dB shadowing,
	// detection there should succeed roughly half the time.
	positions := []geo.Point{{X: 0, Y: 0}, {X: 89, Y: 0}}
	tr := NewTransport(ch, positions, 23, -95, 30, nil)
	detected := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if len(broadcastOne(tr, 0, RACH1, KindPulse, 0, units.Slot(i))) > 0 {
			detected++
		}
	}
	frac := float64(detected) / trials
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("boundary detection fraction = %v, want ~0.5", frac)
	}
}

func TestMarginExtendsCandidates(t *testing.T) {
	streams := xrand.NewStreams(3)
	ch := radio.NewChannel(radio.PaperDualSlope(), 10, radio.FadingNone, streams)
	positions := []geo.Point{{X: 0, Y: 0}, {X: 120, Y: 0}}
	noMargin := NewTransport(ch, positions, 23, -95, 0, nil)
	withMargin := NewTransport(ch, positions, 23, -95, 30, nil)
	if noMargin.reach >= withMargin.reach {
		t.Error("margin should extend the candidate radius")
	}
	// 120 m needs ~+11 dB of shadowing; with margin the device is at
	// least probed, and over many trials some detections occur.
	detected := 0
	for i := 0; i < 3000; i++ {
		if len(broadcastOne(withMargin, 0, RACH1, KindPulse, 0, units.Slot(i))) > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Error("positive fades at 120 m should yield occasional detections")
	}
}

func TestBroadcastSelfExcluded(t *testing.T) {
	positions := []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	tr := quietTransport(positions)
	for _, d := range broadcastOne(tr, 0, RACH1, KindPulse, 0, 1) {
		if d.To == 0 {
			t.Fatal("device received its own broadcast")
		}
	}
}

func TestTransportAccessors(t *testing.T) {
	positions := []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	tr := quietTransport(positions)
	if tr.N() != 2 {
		t.Errorf("N = %d", tr.N())
	}
	if tr.Position(1) != (geo.Point{X: 3, Y: 4}) {
		t.Errorf("Position(1) = %v", tr.Position(1))
	}
}

func TestCodecAndKindStrings(t *testing.T) {
	if RACH1.String() != "RACH1" || RACH2.String() != "RACH2" {
		t.Error("codec names wrong")
	}
	if Codec(9).String() != "RACH(9)" {
		t.Error("unknown codec format wrong")
	}
	names := map[Kind]string{
		KindPulse: "pulse", KindReport: "report", KindDecision: "decision",
		KindConnect: "connect", KindAccept: "accept",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(42).String() != "kind(42)" {
		t.Error("unknown kind format wrong")
	}
}
