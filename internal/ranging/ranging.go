// Package ranging implements the paper's RSSI-based ranging scheme
// (Section III, eqs. 6–12): estimating the distance between two devices from
// the received strength of a Proximity Signal, and the analytic error model
// that shadowing induces on that estimate.
//
// The chain is: a transmitter at known power sends a PS; the receiver
// observes p*** = p* + 10·n·log10(r/r0) + x with x ~ N(0, σ²) in dB;
// inverting the deterministic part yields the distance estimate
// r_u = r · 10^{x/(10n)} (eq. 11), whose relative error is
// ε = 10^{x/(10n)} − 1 (eq. 12).
package ranging

import (
	"math"

	"repro/internal/radio"
	"repro/internal/units"
)

// Estimator inverts a path-loss model: given a received power and the known
// transmit power, it returns the maximum-likelihood distance under the
// deterministic model (shadowing ignored — that is exactly what makes the
// estimate noisy, per eq. 11).
type Estimator struct {
	// Model is the deterministic path-loss model to invert.
	Model radio.PathLoss
	// TxPower is the known transmit power of the PS (Table I: 23 dBm).
	TxPower units.DBm
}

// NewEstimator returns an estimator for the given model and TX power.
func NewEstimator(model radio.PathLoss, txPower units.DBm) *Estimator {
	return &Estimator{Model: model, TxPower: txPower}
}

// EstimateDistance inverts the path-loss model for one received-power
// observation by bisection (the model is monotone in distance). The search
// covers [1 m, maxRange]; observations weaker than the loss at maxRange
// clamp to maxRange, observations stronger than the 1 m level clamp to 1 m.
func (e *Estimator) EstimateDistance(rx units.DBm, maxRange units.Metre) units.Metre {
	loss := units.DB(e.TxPower - rx)
	if loss <= e.Model.Loss(1) {
		return 1
	}
	if loss >= e.Model.Loss(maxRange) {
		return maxRange
	}
	lo, hi := 1.0, float64(maxRange)
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if e.Model.Loss(units.Metre(mid)) < loss {
			lo = mid
		} else {
			hi = mid
		}
	}
	return units.Metre((lo + hi) / 2)
}

// EstimateFromSamples averages several received-power observations in the dB
// domain before inverting — the variance of the shadowing term shrinks as
// 1/k, tightening eq. (12)'s error. It returns the estimate and the number
// of samples used; with no samples it returns maxRange.
func (e *Estimator) EstimateFromSamples(rx []units.DBm, maxRange units.Metre) (units.Metre, int) {
	if len(rx) == 0 {
		return maxRange, 0
	}
	var sum float64
	for _, p := range rx {
		sum += float64(p)
	}
	return e.EstimateDistance(units.DBm(sum/float64(len(rx))), maxRange), len(rx)
}

// RelativeError is eq. (6): ε = r*/r − 1, the relative error of a measured
// distance r* against the true distance r. Its range is [−1, +∞).
func RelativeError(measured, actual units.Metre) float64 {
	if actual <= 0 {
		return 0
	}
	return float64(measured)/float64(actual) - 1
}

// ErrorFromShadowing is eq. (12): the relative ranging error induced by a
// shadowing draw x (dB) under path-loss exponent n: ε = 10^{x/(10n)} − 1.
func ErrorFromShadowing(xDB, n float64) float64 {
	return math.Pow(10, xDB/(10*n)) - 1
}

// ExpectedAbsRelativeError returns E|ε| for shadowing stddev sigma (dB) under
// exponent n, evaluated in closed form from the log-normal moments:
// with s = sigma·ln10/(10n), ε+1 is log-normal(0, s²) and
// E|ε| = 2(Φ(s/... )) — we use the standard folded form
// E|10^{x/10n} − 1| = e^{s²/2}·(2Φ(s) − 1)·... ; rather than carry the full
// algebra in a comment, the implementation integrates numerically over the
// Gaussian, which is exact to the quadrature tolerance and self-documenting.
func ExpectedAbsRelativeError(sigmaDB, n float64) float64 {
	if sigmaDB == 0 {
		return 0
	}
	// Gauss-Legendre style fixed-step integration over ±8 sigma.
	const steps = 4000
	lo, hi := -8*sigmaDB, 8*sigmaDB
	h := (hi - lo) / steps
	var acc float64
	for i := 0; i <= steps; i++ {
		x := lo + float64(i)*h
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		pdf := math.Exp(-x*x/(2*sigmaDB*sigmaDB)) / (sigmaDB * math.Sqrt(2*math.Pi))
		acc += w * math.Abs(ErrorFromShadowing(x, n)) * pdf
	}
	return acc * h
}
