package metrics

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestBootstrapCICoversMean(t *testing.T) {
	src := xrand.NewStream(1)
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = src.Gaussian(100, 10)
	}
	lo, hi := BootstrapCI(xs, 0.95, 2000, src)
	mean := Summarize(xs).Mean
	if lo > mean || hi < mean {
		t.Errorf("CI [%v, %v] does not cover the sample mean %v", lo, hi, mean)
	}
	if hi-lo <= 0 {
		t.Error("CI has no width")
	}
	// Rough sanity: width ~ 2·1.96·σ/√n ≈ 5.5.
	if hi-lo > 12 || hi-lo < 2 {
		t.Errorf("CI width %v implausible", hi-lo)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	src := xrand.NewStream(2)
	if lo, hi := BootstrapCI(nil, 0.95, 100, src); lo != 0 || hi != 0 {
		t.Error("empty input should return zeros")
	}
	if lo, hi := BootstrapCI([]float64{7}, 0.95, 100, src); lo != 7 || hi != 7 {
		t.Error("single observation should return a point interval")
	}
	// Bad confidence coerced.
	lo, hi := BootstrapCI([]float64{1, 2, 3, 4}, 2.0, 100, src)
	if lo > hi {
		t.Error("coerced confidence produced an inverted interval")
	}
}

func TestBootstrapCINarrowsWithN(t *testing.T) {
	src := xrand.NewStream(3)
	small := make([]float64, 10)
	big := make([]float64, 400)
	for i := range small {
		small[i] = src.Gaussian(0, 5)
	}
	for i := range big {
		big[i] = src.Gaussian(0, 5)
	}
	lo1, hi1 := BootstrapCI(small, 0.95, 1000, src)
	lo2, hi2 := BootstrapCI(big, 0.95, 1000, src)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("CI should narrow with n: %v vs %v", hi2-lo2, hi1-lo1)
	}
}

func TestMannWhitneyDetectsShift(t *testing.T) {
	src := xrand.NewStream(4)
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = src.Gaussian(100, 5)
		b[i] = src.Gaussian(130, 5) // clearly shifted
	}
	_, p := MannWhitneyU(a, b)
	if p >= 0.05 {
		t.Errorf("clear shift not detected: p = %v", p)
	}
}

func TestMannWhitneyNoShift(t *testing.T) {
	src := xrand.NewStream(5)
	rejections := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 20)
		b := make([]float64, 20)
		for i := range a {
			a[i] = src.Gaussian(50, 10)
			b[i] = src.Gaussian(50, 10)
		}
		if _, p := MannWhitneyU(a, b); p < 0.05 {
			rejections++
		}
	}
	// Type-I error should be near 5%.
	if rejections > 15 {
		t.Errorf("null rejected %d/%d times; test is anticonservative", rejections, trials)
	}
}

func TestMannWhitneySmallSamples(t *testing.T) {
	if _, p := MannWhitneyU([]float64{1}, []float64{2, 3, 4}); p != 1 {
		t.Error("underpowered comparison should return p=1")
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	a := []float64{5, 5, 5, 5}
	b := []float64{5, 5, 5, 5}
	_, p := MannWhitneyU(a, b)
	if p != 1 {
		t.Errorf("identical samples should give p=1, got %v", p)
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{4, 5, 6, 7, 8, 9}
	_, pab := MannWhitneyU(a, b)
	_, pba := MannWhitneyU(b, a)
	if math.Abs(pab-pba) > 1e-12 {
		t.Errorf("two-sided p should be symmetric: %v vs %v", pab, pba)
	}
}

func TestNormalSF(t *testing.T) {
	if got := normalSF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SF(0) = %v", got)
	}
	if got := normalSF(1.96); math.Abs(got-0.025) > 0.001 {
		t.Errorf("SF(1.96) = %v, want ~0.025", got)
	}
}
