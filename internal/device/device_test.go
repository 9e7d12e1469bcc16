package device

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/oscillator"
	"repro/internal/units"
	"repro/internal/xrand"
)

func newTestDevice(id int, svc Service) *Device {
	osc := oscillator.New(0, 100, oscillator.DefaultCoupling())
	return New(id, geo.Point{X: 1, Y: 2}, 23, osc, svc)
}

func TestObservePSUpdatesDiscovery(t *testing.T) {
	d := newTestDevice(0, 1)
	d.ObservePS(5, -80, 1)
	d.ObservePS(5, -90, 1)
	d.ObservePS(7, -70, 2)

	rssi, ok := d.MeanRSSITo(5)
	if !ok {
		t.Fatal("peer 5 not discovered")
	}
	if math.Abs(float64(rssi)+85) > 1e-12 {
		t.Errorf("mean RSSI = %v, want -85", rssi)
	}
	if !d.ServicePeers[5] {
		t.Error("peer 5 shares service 1, should be a service peer")
	}
	if d.ServicePeers[7] {
		t.Error("peer 7 has service 2, must not be a service peer")
	}
	if _, ok := d.MeanRSSITo(99); ok {
		t.Error("undiscovered peer reported")
	}
}

func TestRSSIStat(t *testing.T) {
	var s RSSIStat
	s = s.Add(-80).Add(-84)
	if s.Count != 2 {
		t.Errorf("count = %d", s.Count)
	}
	if got := float64(s.Mean()); math.Abs(got+82) > 1e-12 {
		t.Errorf("mean = %v, want -82", got)
	}
}

func TestRSSIStatEmptyMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mean of empty stat should panic")
		}
	}()
	var s RSSIStat
	s.Mean()
}

func TestDeviceString(t *testing.T) {
	d := newTestDevice(3, 2)
	if got := d.String(); got != "UE3@(1.00, 2.00) svc=2" {
		t.Errorf("String = %q", got)
	}
}

func TestRandomWaypointStaysInAreaAndMoves(t *testing.T) {
	area := geo.Square(100)
	src := xrand.NewStream(1)
	w := NewRandomWaypoint(area, 0.5, src)
	p := geo.Point{X: 50, Y: 50}
	var travelled float64
	for i := 0; i < 10000; i++ {
		next := w.Step(p)
		travelled += p.Dist(next)
		p = next
		if !area.Contains(p) {
			t.Fatalf("walker left the area: %v", p)
		}
	}
	if travelled < 1000 {
		t.Errorf("walker covered only %v m in 10k slots at 0.5 m/slot", travelled)
	}
}

func TestRandomWaypointStepBounded(t *testing.T) {
	area := geo.Square(100)
	src := xrand.NewStream(2)
	w := NewRandomWaypoint(area, 0.25, src)
	p := geo.Point{X: 10, Y: 10}
	for i := 0; i < 1000; i++ {
		next := w.Step(p)
		if d := p.Dist(next); d > 0.25+1e-9 {
			t.Fatalf("step %d moved %v m, exceeds speed 0.25", i, d)
		}
		p = next
	}
}

func TestRandomWaypointRetargetsOnArrival(t *testing.T) {
	area := geo.Square(10)
	src := xrand.NewStream(3)
	w := NewRandomWaypoint(area, 1, src)
	p := geo.Point{X: 5, Y: 5}
	// Walk long enough to visit several waypoints; positions must not
	// get stuck at a single destination.
	positions := map[geo.Point]int{}
	for i := 0; i < 500; i++ {
		p = w.Step(p)
		positions[p]++
	}
	for pt, n := range positions {
		if n > 400 {
			t.Fatalf("walker stuck at %v for %d steps", pt, n)
		}
	}
}

func TestUnitsSlotDuration(t *testing.T) {
	// Guard the Table I constant where the device layer depends on it.
	if units.SlotDurationMS != 1.0 {
		t.Error("slot duration must be 1 ms per Table I")
	}
}
