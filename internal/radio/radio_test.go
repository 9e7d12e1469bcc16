package radio

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/xrand"
)

func TestPaperDualSlopeValues(t *testing.T) {
	m := PaperDualSlope()
	cases := []struct {
		d    units.Metre
		want float64
	}{
		{1, 4.35},                          // near branch, log10(1)=0
		{3, 4.35 + 25*math.Log10(3)},       // near branch
		{5.99, 4.35 + 25*math.Log10(5.99)}, // just below break
		{6, 40.0 + 40*math.Log10(6)},       // at break: far branch
		{10, 40.0 + 40*math.Log10(10)},     // far branch: 80 dB
		{100, 40.0 + 40*math.Log10(100)},   // 120 dB
	}
	for _, c := range cases {
		got := float64(m.Loss(c.d))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Loss(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestDualSlopeClampsBelowOneMetre(t *testing.T) {
	m := PaperDualSlope()
	if m.Loss(0.1) != m.Loss(1) {
		t.Error("sub-metre distances should clamp to the 1 m loss")
	}
	if m.Loss(0) != m.Loss(1) {
		t.Error("zero distance should clamp to the 1 m loss")
	}
}

func TestDualSlopeMonotoneProperty(t *testing.T) {
	m := PaperDualSlope()
	f := func(a, b float64) bool {
		a = 1 + math.Abs(math.Mod(a, 1000))
		b = 1 + math.Abs(math.Mod(b, 1000))
		if a > b {
			a, b = b, a
		}
		return m.Loss(units.Metre(a)) <= m.Loss(units.Metre(b))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogDistance(t *testing.T) {
	m := LogDistance{Exponent: 4, RefDistance: 1, RefLoss: 40}
	// 10x distance at n=4 adds 40 dB.
	l1 := m.Loss(1)
	l10 := m.Loss(10)
	if math.Abs(float64(l10-l1)-40) > 1e-9 {
		t.Errorf("decade slope = %v, want 40 dB", l10-l1)
	}
	if l1 != 40 {
		t.Errorf("reference loss = %v, want 40", l1)
	}
	// Below the reference distance the loss clamps to RefLoss.
	if m.Loss(0.5) != 40 {
		t.Errorf("sub-reference loss = %v, want 40", m.Loss(0.5))
	}
}

func TestIndoorOutdoorExponents(t *testing.T) {
	in := IndoorLogDistance()
	out := OutdoorLogDistance()
	if in.Exponent != 2 || out.Exponent != 4 {
		t.Errorf("exponents = %v/%v, want 2/4", in.Exponent, out.Exponent)
	}
	// Outdoor decays faster: at 100 m outdoor loss must exceed indoor.
	if out.Loss(100) <= in.Loss(100) {
		t.Error("outdoor loss should exceed indoor at 100 m")
	}
}

func TestFreeSpaceKnownValue(t *testing.T) {
	// Friis at 2 GHz, 1 m: 20log10(1) + 20log10(2000) - 27.55 ≈ 38.47 dB.
	m := FreeSpace{FrequencyGHz: 2}
	got := float64(m.Loss(1))
	if math.Abs(got-38.47) > 0.02 {
		t.Errorf("free-space 1 m @2 GHz = %v, want ~38.47", got)
	}
}

func TestMaxRange(t *testing.T) {
	m := PaperDualSlope()
	tx := units.DBm(23)
	thr := units.DBm(-95)
	r := MaxRange(m, tx, thr, 10000)
	// At the range limit the budget is exactly met: 23 - PL(r) = -95
	// => PL(r) = 118 => 40 + 40log10(r) = 118 => r = 10^(78/40) ≈ 89.1 m.
	want := math.Pow(10, 78.0/40)
	if math.Abs(float64(r)-want) > 0.01 {
		t.Errorf("MaxRange = %v, want ~%v", r, want)
	}
	// Threshold no device can meet.
	if got := MaxRange(m, units.DBm(-200), thr, 1000); got != 0 {
		t.Errorf("impossible budget range = %v, want 0", got)
	}
	// Budget met everywhere within hi.
	if got := MaxRange(m, units.DBm(200), thr, 50); got != 50 {
		t.Errorf("unbounded budget range = %v, want hi=50", got)
	}
}

func TestChannelMeanReceivedPower(t *testing.T) {
	streams := xrand.NewStreams(1)
	c := PaperChannel(streams)
	got := float64(c.MeanReceivedPower(23, 10))
	want := 23 - 80.0 // PL(10) = 40+40 = 80
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mean rx power = %v, want %v", got, want)
	}
}

func TestChannelSampleStats(t *testing.T) {
	streams := xrand.NewStreams(2)
	// Shadowing only: samples should be Gaussian around the mean.
	c := NewChannel(PaperDualSlope(), 10, FadingNone, streams)
	mean := float64(c.MeanReceivedPower(23, 20))
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(c.Sample(23, 20))
		sum += v
		sumsq += v * v
	}
	m := sum / n
	std := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-mean) > 0.2 {
		t.Errorf("sample mean = %v, want ~%v", m, mean)
	}
	if math.Abs(std-10) > 0.2 {
		t.Errorf("sample std = %v, want ~10", std)
	}
}

func TestRayleighFadingUnitMeanPower(t *testing.T) {
	streams := xrand.NewStreams(3)
	c := NewChannel(PaperDualSlope(), 0, FadingRayleigh, streams)
	const n = 100000
	var sumLin float64
	for i := 0; i < n; i++ {
		sumLin += units.DB(c.SampleMean(0)).LinearRatio()
	}
	if mean := sumLin / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("Rayleigh fading linear mean = %v, want ~1", mean)
	}
}

func TestRicianFadingUnitMeanPower(t *testing.T) {
	streams := xrand.NewStreams(4)
	c := NewChannel(PaperDualSlope(), 0, FadingRician, streams)
	const n = 100000
	var sumLin float64
	for i := 0; i < n; i++ {
		sumLin += units.DB(c.SampleMean(0)).LinearRatio()
	}
	if mean := sumLin / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("Rician fading linear mean = %v, want ~1", mean)
	}
}

func TestRicianLessVariableThanRayleigh(t *testing.T) {
	streams := xrand.NewStreams(5)
	ray := NewChannel(PaperDualSlope(), 0, FadingRayleigh, streams)
	ric := NewChannel(PaperDualSlope(), 0, FadingRician, xrand.NewStreams(6))
	varOf := func(c *Channel) float64 {
		const n = 50000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := units.DB(c.SampleMean(0)).LinearRatio()
			sum += v
			sumsq += v * v
		}
		m := sum / n
		return sumsq/n - m*m
	}
	if varOf(ric) >= varOf(ray) {
		t.Error("Rician (K=6 dB) should have lower power variance than Rayleigh")
	}
}

func TestNoFadingNoShadowingIsDeterministic(t *testing.T) {
	streams := xrand.NewStreams(7)
	c := NewChannel(PaperDualSlope(), 0, FadingNone, streams)
	a := c.Sample(23, 30)
	b := c.Sample(23, 30)
	if a != b {
		t.Error("zero-noise channel should be deterministic")
	}
	if a != c.MeanReceivedPower(23, 30) {
		t.Error("zero-noise sample should equal the mean")
	}
}

func TestFadingString(t *testing.T) {
	if FadingRayleigh.String() != "UMi (NLOS) Rayleigh" {
		t.Errorf("got %q", FadingRayleigh.String())
	}
	if FadingNone.String() != "none" || FadingRician.String() != "Rician" {
		t.Error("fading names wrong")
	}
	if Fading(99).String() != "unknown" {
		t.Error("unknown fading should stringify as unknown")
	}
}

func TestModelNames(t *testing.T) {
	if PaperDualSlope().Name() == "" || OutdoorLogDistance().Name() == "" {
		t.Error("models must have names")
	}
	if (FreeSpace{FrequencyGHz: 2}).Name() == "" {
		t.Error("free-space must have a name")
	}
}

func TestChannelNilStreamsSafe(t *testing.T) {
	c := &Channel{Model: PaperDualSlope(), ShadowSigmaDB: 10, Fading: FadingRayleigh}
	// No streams attached: stochastic terms degrade to zero, no panic.
	if c.Sample(23, 30) != c.MeanReceivedPower(23, 30) {
		t.Error("nil streams should yield zero stochastic terms")
	}
}
