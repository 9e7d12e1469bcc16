package device

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/oscillator"
	"repro/internal/units"
	"repro/internal/xrand"
)

func newTestDevice(id int, svc Service) *Device {
	osc := oscillator.New(0, 100, oscillator.DefaultCoupling())
	return &Device{ID: id, Pos: geo.Point{X: 1, Y: 2}, TxPower: 23, Osc: osc, Service: svc}
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
