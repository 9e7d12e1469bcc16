package ranging

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

func paperEstimator() *Estimator {
	return NewEstimator(radio.PaperDualSlope(), 23)
}

func TestEstimateDistanceExactInversion(t *testing.T) {
	e := paperEstimator()
	model := radio.PaperDualSlope()
	for _, d := range []float64{1.5, 3, 5, 6, 10, 25, 50, 88} {
		rx := units.DBm(23).Sub(model.Loss(units.Metre(d)))
		got := float64(e.EstimateDistance(rx, 1000))
		if math.Abs(got-d) > 0.01 {
			t.Errorf("EstimateDistance at true d=%v: got %v", d, got)
		}
	}
}

func TestEstimateDistanceClamps(t *testing.T) {
	e := paperEstimator()
	// Impossibly strong signal clamps to 1 m.
	if got := e.EstimateDistance(23, 1000); got != 1 {
		t.Errorf("strong signal estimate = %v, want 1", got)
	}
	// Impossibly weak signal clamps to maxRange.
	if got := e.EstimateDistance(-300, 500); got != 500 {
		t.Errorf("weak signal estimate = %v, want 500", got)
	}
}

func TestInversionRoundTripProperty(t *testing.T) {
	e := NewEstimator(radio.OutdoorLogDistance(), 23)
	model := radio.OutdoorLogDistance()
	f := func(raw float64) bool {
		d := 1 + math.Abs(math.Mod(raw, 400))
		rx := units.DBm(23).Sub(model.Loss(units.Metre(d)))
		got := float64(e.EstimateDistance(rx, 1000))
		return math.Abs(got-d) < 0.01+0.001*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimateFromSamplesReducesError(t *testing.T) {
	streams := xrand.NewStreams(1)
	model := radio.PaperDualSlope()
	ch := radio.NewChannel(model, 10, radio.FadingNone, streams)
	e := paperEstimator()
	trueD := units.Metre(30)

	errOf := func(k int) float64 {
		const trials = 400
		var sum float64
		for tr := 0; tr < trials; tr++ {
			rx := make([]units.DBm, k)
			for i := range rx {
				rx[i] = ch.Sample(23, trueD)
			}
			est, n := e.EstimateFromSamples(rx, 1000)
			if n != k {
				t.Fatalf("sample count %d != %d", n, k)
			}
			sum += math.Abs(RelativeError(est, trueD))
		}
		return sum / trials
	}
	e1 := errOf(1)
	e16 := errOf(16)
	if e16 >= e1 {
		t.Errorf("16-sample error %v should beat 1-sample error %v", e16, e1)
	}
}

func TestEstimateFromSamplesEmpty(t *testing.T) {
	e := paperEstimator()
	d, n := e.EstimateFromSamples(nil, 250)
	if d != 250 || n != 0 {
		t.Errorf("empty estimate = (%v,%v), want (250,0)", d, n)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(15, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RelativeError(15,10) = %v, want 0.5", got)
	}
	if got := RelativeError(5, 10); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("RelativeError(5,10) = %v, want -0.5", got)
	}
	if got := RelativeError(10, 0); got != 0 {
		t.Errorf("zero actual distance should yield 0, got %v", got)
	}
}

func TestRelativeErrorLowerBoundProperty(t *testing.T) {
	// eq. (6): ε ∈ [−1, +∞).
	f := func(m, a float64) bool {
		m = math.Abs(math.Mod(m, 1e6))
		a = 0.001 + math.Abs(math.Mod(a, 1e6))
		return RelativeError(units.Metre(m), units.Metre(a)) >= -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErrorFromShadowingMatchesEq12(t *testing.T) {
	// x = 0 → no error.
	if got := ErrorFromShadowing(0, 4); got != 0 {
		t.Errorf("zero shadowing error = %v", got)
	}
	// x = 10n dB → factor 10 → ε = 9.
	if got := ErrorFromShadowing(40, 4); math.Abs(got-9) > 1e-9 {
		t.Errorf("ErrorFromShadowing(40,4) = %v, want 9", got)
	}
	// Negative x shrinks the estimate: ε ∈ (−1, 0).
	if got := ErrorFromShadowing(-40, 4); math.Abs(got+0.9) > 1e-9 {
		t.Errorf("ErrorFromShadowing(-40,4) = %v, want -0.9", got)
	}
}

func TestEq11Eq12Consistency(t *testing.T) {
	// ε computed from eq. 12 must equal RelativeError of eq. 11's output.
	f := func(xRaw, dRaw float64) bool {
		x := math.Mod(xRaw, 30)
		d := 1 + math.Abs(math.Mod(dRaw, 500))
		eps := ErrorFromShadowing(x, 4)
		ru := units.Metre(d * math.Pow(10, x/40)) // eq. (11) with n = 4
		return math.Abs(RelativeError(ru, units.Metre(d))-eps) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpectedAbsRelativeError(t *testing.T) {
	if got := ExpectedAbsRelativeError(0, 4); got != 0 {
		t.Errorf("zero sigma error = %v", got)
	}
	// Monte-Carlo cross-check at sigma=10 dB, n=4.
	s := xrand.NewStream(9)
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Abs(ErrorFromShadowing(s.LogNormalDB(10), 4))
	}
	mc := sum / n
	analytic := ExpectedAbsRelativeError(10, 4)
	if math.Abs(mc-analytic) > 0.01 {
		t.Errorf("analytic E|ε| = %v vs Monte-Carlo %v", analytic, mc)
	}
	// Higher exponent → smaller ranging error (the paper's reason for
	// preferring outdoor n=4 geometry inference).
	if ExpectedAbsRelativeError(10, 2) <= ExpectedAbsRelativeError(10, 4) {
		t.Error("error should shrink as the path-loss exponent grows")
	}
}
