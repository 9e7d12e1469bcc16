package metrics

import (
	"math"
	"sort"

	"repro/internal/xrand"
)

// Statistical inference helpers for protocol comparisons: a bootstrap
// confidence interval for the mean (no normality assumption — convergence
// times are right-skewed) and the Mann–Whitney U test for "is ST's
// distribution actually shifted relative to FST's, or is the sweep just
// noisy?".

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs at the given confidence level (e.g. 0.95), using resamples
// drawn from src. Empty input returns (0, 0); a single observation returns
// the degenerate interval at that value.
func BootstrapCI(xs []float64, confidence float64, resamples int, src *xrand.Stream) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	if resamples < 100 {
		resamples = 100
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	means := make([]float64, resamples)
	for r := range means {
		var sum float64
		for i := 0; i < len(xs); i++ {
			sum += xs[src.Intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return means[loIdx], means[hiIdx]
}

// MannWhitneyU performs the two-sided Mann–Whitney U test (normal
// approximation with tie correction) on samples a and b. It returns the U
// statistic for a and the two-sided p-value. Small samples (< 3 each)
// return p = 1 — no power, no claim.
func MannWhitneyU(a, b []float64) (u float64, p float64) {
	n1, n2 := len(a), len(b)
	if n1 < 3 || n2 < 3 {
		return 0, 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie groups.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.fromA {
			r1 += ranks[i]
		}
	}
	u = r1 - float64(n1)*float64(n1+1)/2

	nn := float64(n1) * float64(n2)
	mu := nn / 2
	n := float64(n1 + n2)
	sigma2 := nn / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		// All observations identical: no evidence of a shift.
		return u, 1
	}
	z := (u - mu) / math.Sqrt(sigma2)
	// Continuity correction.
	if z > 0 {
		z = (u - mu - 0.5) / math.Sqrt(sigma2)
	} else if z < 0 {
		z = (u - mu + 0.5) / math.Sqrt(sigma2)
	}
	p = 2 * normalSF(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return u, p
}

// normalSF is the standard normal survival function 1 - Φ(x).
func normalSF(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}
