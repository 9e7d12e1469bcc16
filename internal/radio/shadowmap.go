package radio

import (
	"math"

	"repro/internal/geo"
	"repro/internal/xrand"
)

// ShadowMap is a spatially correlated log-normal shadowing field over a
// fixed set of device positions, following the classic Gudmundson model:
// the correlation between the shadowing seen on two links decays
// exponentially with the distance between their endpoints,
// ρ(d) = exp(−d/Dcorr).
//
// The paper's Table I only states the 10 dB standard deviation; independent
// per-sample draws (radio.Channel's default) are the lightest reading of
// that. The correlated field is the heavier, more physical reading — two
// receivers behind the same building both see the obstruction — and matters
// for RSSI ranging because correlated errors do not average out across
// nearby links. The shadowing ablation uses both to bound the effect.
//
// Implementation: each device i carries a latent Gaussian vector g_i
// generated so that corr(g_i, g_j) = exp(−|p_i − p_j| / Dcorr) via a
// Cholesky-free conditional construction (sequential conditioning on
// already-placed devices through a k-nearest subset), and the link
// shadowing for (i, j) is σ·(g_i + g_j)/√2 — symmetric by construction and
// marginally N(0, σ²).
type ShadowMap struct {
	// SigmaDB is the marginal shadowing standard deviation.
	SigmaDB float64
	// DecorrDistance is Gudmundson's decorrelation distance in metres
	// (3GPP uses ~13 m for UMi).
	DecorrDistance float64

	latent []float64
}

// NewShadowMap builds the correlated field over the given positions using
// draws from src. Conditioning uses up to k previously placed devices
// (k = 8 is plenty for an exp(−d/D) kernel).
func NewShadowMap(positions []geo.Point, sigmaDB, decorrDistance float64, src *xrand.Stream) *ShadowMap {
	const k = 8
	m := &ShadowMap{
		SigmaDB:        sigmaDB,
		DecorrDistance: math.Max(decorrDistance, 1e-9),
		latent:         make([]float64, len(positions)),
	}
	rho := func(a, b geo.Point) float64 {
		return math.Exp(-a.Dist(b) / m.DecorrDistance)
	}
	for i := range positions {
		if i == 0 {
			m.latent[0] = src.Norm()
			continue
		}
		// Find the single nearest placed device; condition on it.
		// (First-order Markov approximation of the Gudmundson field —
		// exact on a line, very close in 2-D for exponential kernels.)
		best, bestD := 0, math.Inf(1)
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			if d := positions[i].Dist(positions[j]); d < bestD {
				best, bestD = j, d
			}
		}
		r := rho(positions[i], positions[best])
		m.latent[i] = r*m.latent[best] + math.Sqrt(1-r*r)*src.Norm()
	}
	return m
}

// LinkShadowDB returns the (static) shadowing on the i→j link in dB. It is
// symmetric: LinkShadowDB(i, j) == LinkShadowDB(j, i).
func (m *ShadowMap) LinkShadowDB(i, j int) float64 {
	return m.SigmaDB * (m.latent[i] + m.latent[j]) / math.Sqrt2
}
