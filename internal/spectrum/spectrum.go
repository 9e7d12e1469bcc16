// Package spectrum models the "underlay" in D2D-underlaying-cellular (the
// paper's title scenario, Fig. 1): D2D pairs reuse the cell's uplink
// resource blocks, trading interference at the base station against
// spectral reuse. The paper's introduction claims D2D "not only increases
// system capacity but also utilizes the advantage of physical proximity";
// this package makes that claim computable: Shannon capacity of the
// cellular uplink plus the D2D links under co-channel interference,
// compared against serving the same D2D traffic through the BS.
//
// The model is the standard single-cell uplink underlay: one PRB carries
// one cellular UE; each D2D pair is assigned one PRB and interferes with
// that PRB's cellular UE at the BS (and vice versa at the D2D receiver).
// Capacities are Shannon rates in bit/s/Hz from the deterministic (mean)
// path loss — the convention of underlay capacity studies.
package spectrum

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
)

// Scenario is one single-cell underlay configuration.
type Scenario struct {
	// BS is the base-station position.
	BS geo.Point
	// CellUEs are the cellular uplink users, one per PRB (index = PRB).
	CellUEs []geo.Point
	// Pairs are the D2D transmitter/receiver pairs.
	Pairs [][2]geo.Point
	// Model is the deterministic path-loss model for every link.
	Model radio.PathLoss
	// CellTxPower, D2DTxPower are the transmit powers.
	CellTxPower, D2DTxPower units.DBm
	// Noise is the receiver noise floor.
	Noise units.DBm
}

// PaperScenario builds a scenario on the Table I radio constants: BS at the
// area centre, cellular UEs and D2D pairs drawn from the deployment, D2D at
// 23 dBm, cellular uplink at 23 dBm, PRB-bandwidth noise floor.
func PaperScenario(bs geo.Point, cellUEs []geo.Point, pairs [][2]geo.Point) Scenario {
	return Scenario{
		BS: bs, CellUEs: cellUEs, Pairs: pairs,
		Model:       radio.PaperDualSlope(),
		CellTxPower: 23, D2DTxPower: 23,
		// One PRB is 180 kHz; 9 dB UE/BS noise figure.
		Noise: radio.NoiseFloor(180e3, 9),
	}
}

// Capacity aggregates the Shannon rates of one assignment.
type Capacity struct {
	// CellularBpsHz is the sum uplink capacity across PRBs.
	CellularBpsHz float64
	// D2DBpsHz is the sum D2D capacity.
	D2DBpsHz float64
	// SumBpsHz is the system total.
	SumBpsHz float64
}

func (c Capacity) String() string {
	return fmt.Sprintf("cellular %.2f + D2D %.2f = %.2f bit/s/Hz", c.CellularBpsHz, c.D2DBpsHz, c.SumBpsHz)
}

// shannon returns log2(1 + SINR_linear).
func shannon(sinr units.DB) float64 {
	return math.Log2(1 + sinr.LinearRatio())
}

// rx returns the mean received power over a link.
func (s Scenario) rx(tx units.DBm, from, to geo.Point) units.DBm {
	return tx.Sub(s.Model.Loss(units.Metre(from.Dist(to))))
}

// Evaluate computes system capacity for a PRB assignment: assign[i] is the
// PRB (cellular UE index) reused by D2D pair i, or -1 to leave the pair
// unserved. Multiple pairs may share a PRB; they then interfere with each
// other too.
func (s Scenario) Evaluate(assign []int) Capacity {
	if len(assign) != len(s.Pairs) {
		panic("spectrum: assignment length mismatch")
	}
	var cap Capacity
	// Pairs sharing each PRB.
	byPRB := make(map[int][]int)
	for i, prb := range assign {
		if prb >= 0 && prb < len(s.CellUEs) {
			byPRB[prb] = append(byPRB[prb], i)
		}
	}
	// Cellular uplink per PRB: signal from the cell UE at the BS,
	// interference from every D2D transmitter on the PRB.
	for prb, ue := range s.CellUEs {
		signal := s.rx(s.CellTxPower, ue, s.BS)
		var interf []units.DBm
		for _, pi := range byPRB[prb] {
			interf = append(interf, s.rx(s.D2DTxPower, s.Pairs[pi][0], s.BS))
		}
		cap.CellularBpsHz += shannon(radio.SINR(signal, interf, s.Noise))
	}
	// D2D links: signal across the pair, interference from the PRB's
	// cellular UE and from other pairs sharing the PRB.
	for prb, pis := range byPRB {
		for _, pi := range pis {
			tx, rxp := s.Pairs[pi][0], s.Pairs[pi][1]
			signal := s.rx(s.D2DTxPower, tx, rxp)
			interf := []units.DBm{s.rx(s.CellTxPower, s.CellUEs[prb], rxp)}
			for _, other := range pis {
				if other != pi {
					interf = append(interf, s.rx(s.D2DTxPower, s.Pairs[other][0], rxp))
				}
			}
			cap.D2DBpsHz += shannon(radio.SINR(signal, interf, s.Noise))
		}
	}
	cap.SumBpsHz = cap.CellularBpsHz + cap.D2DBpsHz
	return cap
}

// EvaluateDiscrete is Evaluate with LTE link adaptation instead of Shannon
// rates: each link runs at the effective throughput of the best MCS its
// SINR supports ((1−BLER)·spectral efficiency, radio.EffectiveRate). Rates
// are lower and quantized — what a real scheduler would see.
func (s Scenario) EvaluateDiscrete(assign []int) Capacity {
	if len(assign) != len(s.Pairs) {
		panic("spectrum: assignment length mismatch")
	}
	var cap Capacity
	byPRB := make(map[int][]int)
	for i, prb := range assign {
		if prb >= 0 && prb < len(s.CellUEs) {
			byPRB[prb] = append(byPRB[prb], i)
		}
	}
	for prb, ue := range s.CellUEs {
		signal := s.rx(s.CellTxPower, ue, s.BS)
		var interf []units.DBm
		for _, pi := range byPRB[prb] {
			interf = append(interf, s.rx(s.D2DTxPower, s.Pairs[pi][0], s.BS))
		}
		cap.CellularBpsHz += radio.EffectiveRate(radio.SINR(signal, interf, s.Noise))
	}
	for prb, pis := range byPRB {
		for _, pi := range pis {
			tx, rxp := s.Pairs[pi][0], s.Pairs[pi][1]
			signal := s.rx(s.D2DTxPower, tx, rxp)
			interf := []units.DBm{s.rx(s.CellTxPower, s.CellUEs[prb], rxp)}
			for _, other := range pis {
				if other != pi {
					interf = append(interf, s.rx(s.D2DTxPower, s.Pairs[other][0], rxp))
				}
			}
			cap.D2DBpsHz += radio.EffectiveRate(radio.SINR(signal, interf, s.Noise))
		}
	}
	cap.SumBpsHz = cap.CellularBpsHz + cap.D2DBpsHz
	return cap
}

// CellularOnly is the no-underlay baseline: the D2D traffic is relayed
// through the BS instead (each pair's traffic consumes uplink capacity on
// its assigned PRB at the *relay* rate — the worse of the two hops — and
// halves it for the two-hop relay), with no reuse gain. It returns the
// equivalent system capacity for comparison.
func (s Scenario) CellularOnly(assign []int) Capacity {
	var cap Capacity
	for _, ue := range s.CellUEs {
		signal := s.rx(s.CellTxPower, ue, s.BS)
		cap.CellularBpsHz += shannon(radio.SINR(signal, nil, s.Noise))
	}
	for i, prb := range assign {
		if prb < 0 || prb >= len(s.CellUEs) {
			continue
		}
		tx, rxp := s.Pairs[i][0], s.Pairs[i][1]
		up := shannon(radio.SINR(s.rx(s.D2DTxPower, tx, s.BS), nil, s.Noise))
		down := shannon(radio.SINR(s.rx(s.CellTxPower, s.BS, rxp), nil, s.Noise))
		rate := math.Min(up, down) / 2 // two-hop relay on shared resources
		cap.D2DBpsHz += rate
	}
	cap.SumBpsHz = cap.CellularBpsHz + cap.D2DBpsHz
	return cap
}

// GreedyAssign assigns each pair the PRB that maximizes the marginal system
// capacity given the assignments made so far — the interference-aware
// scheduler a BS-managed underlay would run.
func GreedyAssign(s Scenario) []int {
	assign := make([]int, len(s.Pairs))
	for i := range assign {
		assign[i] = -1
	}
	for i := range s.Pairs {
		bestPRB, bestCap := -1, math.Inf(-1)
		for prb := range s.CellUEs {
			assign[i] = prb
			if c := s.Evaluate(assign).SumBpsHz; c > bestCap {
				bestCap, bestPRB = c, prb
			}
		}
		assign[i] = bestPRB
	}
	return assign
}
