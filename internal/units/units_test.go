package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDBmToMilliWatts(t *testing.T) {
	cases := []struct {
		dbm DBm
		mw  float64
	}{
		{0, 1},
		{10, 10},
		{20, 100},
		{30, 1000},
		{-10, 0.1},
		{-30, 0.001},
		{23, 199.5262315},
	}
	for _, c := range cases {
		got := float64(c.dbm.MilliWatts())
		if !almostEqual(got, c.mw, 1e-6*c.mw+1e-12) {
			t.Errorf("DBm(%v).MilliWatts() = %v, want %v", c.dbm, got, c.mw)
		}
	}
}

func TestMilliWattsToDBm(t *testing.T) {
	cases := []struct {
		mw  MilliWatt
		dbm float64
	}{
		{1, 0},
		{10, 10},
		{100, 20},
		{0.001, -30},
	}
	for _, c := range cases {
		got := float64(c.mw.DBm())
		if !almostEqual(got, c.dbm, 1e-9) {
			t.Errorf("MilliWatt(%v).DBm() = %v, want %v", c.mw, got, c.dbm)
		}
	}
}

func TestNonPositiveMilliWattIsNegInf(t *testing.T) {
	if !math.IsInf(float64(MilliWatt(0).DBm()), -1) {
		t.Error("0 mW should be -Inf dBm")
	}
	if !math.IsInf(float64(MilliWatt(-5).DBm()), -1) {
		t.Error("negative mW should be -Inf dBm")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(p float64) bool {
		// Constrain to a physically sane range to avoid overflow.
		p = math.Mod(p, 200)
		d := DBm(p)
		back := d.MilliWatts().DBm()
		return almostEqual(float64(back), float64(d), 1e-9*math.Abs(p)+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSub(t *testing.T) {
	p := DBm(23)
	if got := p.Sub(DB(120)); got != DBm(-97) {
		t.Errorf("23 dBm - 120 dB = %v, want -97 dBm", got)
	}
	if got := p.Add(DB(3)); got != DBm(26) {
		t.Errorf("23 dBm + 3 dB = %v, want 26 dBm", got)
	}
}

func TestAtLeast(t *testing.T) {
	thr := DBm(-95)
	if !DBm(-95).AtLeast(thr) {
		t.Error("-95 dBm should meet a -95 dBm threshold")
	}
	if DBm(-95.01).AtLeast(thr) {
		t.Error("-95.01 dBm should not meet a -95 dBm threshold")
	}
}

func TestLinearRatio(t *testing.T) {
	if got := DB(10).LinearRatio(); !almostEqual(got, 10, 1e-12) {
		t.Errorf("10 dB linear = %v, want 10", got)
	}
	if got := DB(3).LinearRatio(); !almostEqual(got, 1.9952623, 1e-6) {
		t.Errorf("3 dB linear = %v", got)
	}
}

func TestDBFromLinear(t *testing.T) {
	if got := DBFromLinear(100); !almostEqual(float64(got), 20, 1e-12) {
		t.Errorf("linear 100 = %v dB, want 20", got)
	}
	if !math.IsInf(float64(DBFromLinear(0)), -1) {
		t.Error("linear 0 should be -Inf dB")
	}
}

func TestStringFormats(t *testing.T) {
	if s := DBm(23).String(); s != "23.00 dBm" {
		t.Errorf("DBm string = %q", s)
	}
	if s := DB(10).String(); s != "10.00 dB" {
		t.Errorf("DB string = %q", s)
	}
	if s := Metre(6).String(); s != "6.00 m" {
		t.Errorf("Metre string = %q", s)
	}
}
