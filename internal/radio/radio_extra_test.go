package radio

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/units"
	"repro/internal/xrand"
)

func TestShadowMapMarginalStd(t *testing.T) {
	// Device latents are marginally N(0, σ²); link shadowing too.
	src := xrand.NewStream(1)
	var devVals, linkVals []float64
	for trial := 0; trial < 400; trial++ {
		pts := geo.UniformDeployment(20, geo.Square(200), src)
		m := NewShadowMap(pts, 10, 13, src)
		for i := range pts {
			devVals = append(devVals, m.SigmaDB*m.latent[i])
		}
		linkVals = append(linkVals, m.LinkShadowDB(0, 19))
	}
	if std := stdOf(devVals); math.Abs(std-10) > 0.5 {
		t.Errorf("device shadowing std = %v, want ~10", std)
	}
	// Link values over far-apart endpoints are also ~N(0, σ²).
	if std := stdOf(linkVals); math.Abs(std-10) > 1.2 {
		t.Errorf("link shadowing std = %v, want ~10", std)
	}
}

func stdOf(xs []float64) float64 {
	var sum, ss float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

func TestShadowMapSpatialCorrelation(t *testing.T) {
	// Two devices 1 m apart must have strongly correlated latents; two
	// 200 m apart essentially independent.
	src := xrand.NewStream(2)
	var prodAB, prodAC, sqA, sqB, sqC float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 200, Y: 0}}
		m := NewShadowMap(pts, 10, 13, src)
		a, b, c := m.latent[0], m.latent[1], m.latent[2]
		prodAB += a * b
		prodAC += a * c
		sqA += a * a
		sqB += b * b
		sqC += c * c
	}
	corrClose := prodAB / math.Sqrt(sqA*sqB)
	corrFar := prodAC / math.Sqrt(sqA*sqC)
	wantClose := math.Exp(-1.0 / 13)
	if math.Abs(corrClose-wantClose) > 0.08 {
		t.Errorf("1 m correlation = %v, want ~%v", corrClose, wantClose)
	}
	if math.Abs(corrFar) > 0.08 {
		t.Errorf("200 m correlation = %v, want ~0", corrFar)
	}
}

func TestShadowMapSymmetry(t *testing.T) {
	src := xrand.NewStream(3)
	pts := geo.UniformDeployment(10, geo.Square(100), src)
	m := NewShadowMap(pts, 10, 13, src)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if m.LinkShadowDB(i, j) != m.LinkShadowDB(j, i) {
				t.Fatalf("link shadowing not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestNoiseFloorKnownValue(t *testing.T) {
	// kTB over 1.08 MHz with NF 9: -174 + 60.33 + 9 ≈ -104.66 dBm.
	got := float64(NoiseFloor(PRACHBandwidthHz, 9))
	if math.Abs(got+104.66) > 0.05 {
		t.Errorf("noise floor = %v, want ~-104.66", got)
	}
}

func TestEffectiveThresholdNearTableI(t *testing.T) {
	// PRACH bandwidth, 9 dB NF, ~9.5 dB detection SNR lands within ~0.5 dB
	// of the paper's -95 dBm flat threshold — grounding Table I.
	got := float64(NoiseFloor(PRACHBandwidthHz, 9).Add(9.5))
	if math.Abs(got+95) > 1.0 {
		t.Errorf("effective threshold = %v, want ~-95", got)
	}
}

func TestSINR(t *testing.T) {
	// Signal -90, noise -100, no interference: SINR = 10 dB.
	got := float64(SINR(-90, nil, -100))
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("SINR = %v, want 10", got)
	}
	// One equal-power interferer halves the denominator's headroom:
	// SINR = -90 - ( -100 ⊕ -90 ) where ⊕ is linear sum ≈ -89.59.
	got2 := float64(SINR(-90, []units.DBm{-90}, -100))
	want2 := -90 - 10*math.Log10(math.Pow(10, -10)+math.Pow(10, -9)) - 90
	_ = want2
	if got2 >= 0 || got2 < -0.5 {
		t.Errorf("SINR with equal interferer = %v, want just below 0 dB", got2)
	}
	if !Detectable(units.DB(10), 9.9) || Detectable(units.DB(10), 10.1) {
		t.Error("Detectable comparison wrong")
	}
}

func TestWinnerB1NLOSMonotone(t *testing.T) {
	m := PaperWinnerB1()
	prev := m.Loss(3)
	for d := 4.0; d < 500; d += 7 {
		cur := m.Loss(units.Metre(d))
		if cur < prev {
			t.Fatalf("NLOS loss decreased at %v m", d)
		}
		prev = cur
	}
}

func TestWinnerB1LOSBelowNLOS(t *testing.T) {
	los := WinnerB1{FrequencyGHz: 2, TxHeightM: 1.5, RxHeightM: 1.5, LOS: true}
	nlos := PaperWinnerB1()
	for _, d := range []units.Metre{10, 50, 100, 300} {
		if los.Loss(d) >= nlos.Loss(d) {
			t.Errorf("LOS loss should be below NLOS at %v", d)
		}
	}
}

func TestWinnerB1Breakpoint(t *testing.T) {
	m := WinnerB1{FrequencyGHz: 2, TxHeightM: 1.5, RxHeightM: 1.5, LOS: true}
	// dBP = 4*0.5*0.5*2e9/c ≈ 6.67 m.
	got := float64(m.Breakpoint())
	if math.Abs(got-6.67) > 0.05 {
		t.Errorf("breakpoint = %v, want ~6.67 m", got)
	}
	// The LOS branch switches slope at the breakpoint: slope after must
	// be steeper (40 vs 22.7 per decade).
	nearSlope := float64(m.Loss(6)-m.Loss(3)) / (math.Log10(6) - math.Log10(3))
	farSlope := float64(m.Loss(400)-m.Loss(40)) / (math.Log10(400) - math.Log10(40))
	if farSlope <= nearSlope {
		t.Errorf("far slope %v should exceed near slope %v", farSlope, nearSlope)
	}
}

func TestWinnerB1FrequencyTerm(t *testing.T) {
	low := WinnerB1{FrequencyGHz: 2, TxHeightM: 1.5, RxHeightM: 1.5}
	high := WinnerB1{FrequencyGHz: 5, TxHeightM: 1.5, RxHeightM: 1.5}
	if low.Loss(100) >= high.Loss(100) {
		t.Error("higher carrier frequency should increase NLOS loss")
	}
}

func TestWinnerB1ComparableToTableIDualSlope(t *testing.T) {
	// Sanity: at mid D2D ranges both UMi NLOS models should land within
	// ~15 dB of each other — they describe the same environment family.
	w := PaperWinnerB1()
	d := PaperDualSlope()
	for _, dist := range []units.Metre{20, 50, 80} {
		diff := math.Abs(float64(w.Loss(dist) - d.Loss(dist)))
		if diff > 15 {
			t.Errorf("models diverge by %.1f dB at %v", diff, dist)
		}
	}
}

func TestWinnerB1Name(t *testing.T) {
	if PaperWinnerB1().Name() != "WINNER-B1-NLOS(2.0 GHz)" {
		t.Errorf("name = %q", PaperWinnerB1().Name())
	}
	los := WinnerB1{FrequencyGHz: 2, LOS: true}
	if los.Name() != "WINNER-B1-LOS(2.0 GHz)" {
		t.Errorf("name = %q", los.Name())
	}
}

func TestWinnerB1ValidityFloor(t *testing.T) {
	m := PaperWinnerB1()
	if m.Loss(0.5) != m.Loss(3) {
		t.Error("distances below 3 m should clamp to the validity floor")
	}
}
