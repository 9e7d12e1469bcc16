package spectrum

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/xrand"
)

// testScenario: BS at the centre of a 500 m cell, 4 cellular UEs, 3 D2D
// pairs with short links far from the BS.
func testScenario() Scenario {
	bs := geo.Point{X: 250, Y: 250}
	cells := []geo.Point{{X: 200, Y: 250}, {X: 300, Y: 250}, {X: 250, Y: 200}, {X: 250, Y: 300}}
	pairs := [][2]geo.Point{
		{{X: 20, Y: 20}, {X: 30, Y: 25}},
		{{X: 480, Y: 40}, {X: 470, Y: 50}},
		{{X: 60, Y: 460}, {X: 70, Y: 450}},
	}
	return PaperScenario(bs, cells, pairs)
}

func TestEvaluateNoD2D(t *testing.T) {
	s := testScenario()
	cap := s.Evaluate([]int{-1, -1, -1})
	if cap.D2DBpsHz != 0 {
		t.Errorf("unserved pairs should add no D2D capacity: %v", cap)
	}
	if cap.CellularBpsHz <= 0 {
		t.Error("cellular capacity must be positive")
	}
	if math.Abs(cap.SumBpsHz-cap.CellularBpsHz) > 1e-12 {
		t.Error("sum should equal cellular when no D2D is served")
	}
}

func TestUnderlayIncreasesSystemCapacity(t *testing.T) {
	// The paper's headline motivation: D2D underlay reuse beats both no
	// D2D and BS-relayed D2D for proximate pairs.
	s := testScenario()
	assign := GreedyAssign(s)
	underlay := s.Evaluate(assign)
	relay := s.CellularOnly(assign)
	none := s.Evaluate([]int{-1, -1, -1})
	if underlay.SumBpsHz <= none.SumBpsHz {
		t.Errorf("underlay (%v) should beat no-D2D (%v)", underlay.SumBpsHz, none.SumBpsHz)
	}
	if underlay.SumBpsHz <= relay.SumBpsHz {
		t.Errorf("underlay (%v) should beat BS relaying (%v)", underlay.SumBpsHz, relay.SumBpsHz)
	}
	if underlay.D2DBpsHz <= relay.D2DBpsHz {
		t.Errorf("proximity D2D rate (%v) should beat two-hop relay rate (%v)",
			underlay.D2DBpsHz, relay.D2DBpsHz)
	}
}

func TestGreedyBeatsRandomOnAverage(t *testing.T) {
	s := testScenario()
	greedy := s.Evaluate(GreedyAssign(s)).SumBpsHz
	src := xrand.NewStream(1)
	var randSum float64
	const trials = 50
	for i := 0; i < trials; i++ {
		// Every pair on a uniformly random PRB.
		assign := make([]int, len(s.Pairs))
		for k := range assign {
			assign[k] = src.Intn(len(s.CellUEs))
		}
		randSum += s.Evaluate(assign).SumBpsHz
	}
	if greedy < randSum/trials {
		t.Errorf("greedy (%v) below mean random (%v)", greedy, randSum/trials)
	}
}

func TestInterferenceReducesCellularCapacity(t *testing.T) {
	// Serving a D2D pair on a PRB cannot increase that PRB's cellular
	// rate; with a pair close to the BS the cut is dramatic.
	bs := geo.Point{X: 100, Y: 100}
	cells := []geo.Point{{X: 150, Y: 100}}
	pairs := [][2]geo.Point{{{X: 105, Y: 100}, {X: 110, Y: 100}}} // right next to the BS
	s := PaperScenario(bs, cells, pairs)
	clean := s.Evaluate([]int{-1}).CellularBpsHz
	dirty := s.Evaluate([]int{0}).CellularBpsHz
	if dirty >= clean {
		t.Errorf("cellular capacity should drop under interference: %v -> %v", clean, dirty)
	}
	if dirty > clean/2 {
		t.Errorf("a D2D transmitter at the BS should crush the uplink: %v -> %v", clean, dirty)
	}
}

func TestSharedPRBMutualInterference(t *testing.T) {
	// Two pairs on one PRB each see the other as interference: per-pair
	// rate must drop versus exclusive PRBs.
	bs := geo.Point{X: 500, Y: 500}
	cells := []geo.Point{{X: 400, Y: 500}, {X: 600, Y: 500}}
	pairs := [][2]geo.Point{
		{{X: 20, Y: 20}, {X: 25, Y: 25}},
		{{X: 60, Y: 60}, {X: 65, Y: 65}},
	}
	s := PaperScenario(bs, cells, pairs)
	shared := s.Evaluate([]int{0, 0}).D2DBpsHz
	exclusive := s.Evaluate([]int{0, 1}).D2DBpsHz
	if shared >= exclusive {
		t.Errorf("sharing a PRB (%v) should cost D2D capacity vs exclusive (%v)", shared, exclusive)
	}
}

func TestEvaluatePanicsOnBadAssignment(t *testing.T) {
	s := testScenario()
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	s.Evaluate([]int{0})
}

func TestDiscreteNeverBeatsShannon(t *testing.T) {
	s := testScenario()
	for _, assign := range [][]int{{-1, -1, -1}, {0, 1, 2}, {0, 0, 0}} {
		shannon := s.Evaluate(assign)
		discrete := s.EvaluateDiscrete(assign)
		if discrete.SumBpsHz > shannon.SumBpsHz+1e-9 {
			t.Errorf("assign %v: discrete %v beats Shannon %v", assign, discrete.SumBpsHz, shannon.SumBpsHz)
		}
		if discrete.CellularBpsHz > shannon.CellularBpsHz+1e-9 {
			t.Errorf("assign %v: discrete cellular beats Shannon", assign)
		}
	}
}

func TestDiscreteUnderlayStillWins(t *testing.T) {
	// The capacity argument survives link adaptation: short D2D links run
	// at top MCS, so the underlay gain persists under discrete rates.
	s := testScenario()
	assign := GreedyAssign(s)
	under := s.EvaluateDiscrete(assign)
	none := s.EvaluateDiscrete([]int{-1, -1, -1})
	if under.SumBpsHz <= none.SumBpsHz {
		t.Errorf("discrete underlay (%v) should beat no-D2D (%v)", under.SumBpsHz, none.SumBpsHz)
	}
}

func TestEvaluateDiscretePanicsOnBadAssignment(t *testing.T) {
	s := testScenario()
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	s.EvaluateDiscrete([]int{0})
}

func TestCapacityString(t *testing.T) {
	c := Capacity{CellularBpsHz: 1, D2DBpsHz: 2, SumBpsHz: 3}
	if !strings.Contains(c.String(), "= 3.00 bit/s/Hz") {
		t.Errorf("String = %q", c.String())
	}
}
