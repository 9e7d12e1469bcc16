package radio

import (
	"math"

	"repro/internal/units"
	"repro/internal/xrand"
)

// BlockFading is the time-correlated fast-fading model: the channel gain of
// a link holds for one coherence block (CoherenceSlots slots ≈ the channel
// coherence time; ~50 ms at pedestrian speeds and 2 GHz) and redraws
// independently in the next block. The i.i.d.-per-sample fading of
// radio.Channel is the Tc → 0 limit; block fading is what makes multi-
// sample RSSI averaging *within* a block useless and *across* blocks
// effective — the realism knob for the ranging studies.
//
// Gains are deterministic functions of (seed, link, block): no per-link
// state is kept, runs are reproducible, and both directions of a link see
// the same gain (channel reciprocity).
type BlockFading struct {
	// CoherenceSlots is the block length in slots (>= 1).
	CoherenceSlots int
	// Kind selects the fading family (FadingNone disables).
	Kind Fading
	// RicianKdB applies when Kind == FadingRician.
	RicianKdB float64

	seed int64
}

// NewBlockFading returns a model rooted at the given seed.
func NewBlockFading(coherenceSlots int, kind Fading, seed int64) *BlockFading {
	if coherenceSlots < 1 {
		coherenceSlots = 1
	}
	return &BlockFading{CoherenceSlots: coherenceSlots, Kind: kind, RicianKdB: 6, seed: seed}
}

// GainDB returns the fading power gain (dB) of the (i, j) link in the
// block containing slot. Symmetric in (i, j).
func (b *BlockFading) GainDB(i, j int, slot units.Slot) float64 {
	if b == nil || b.Kind == FadingNone {
		return 0
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo // channel reciprocity: (i,j) and (j,i) share a gain
	}
	block := int64(slot) / int64(b.CoherenceSlots)
	// Stateless per-(link, block) randomness via a splitmix64 counter
	// generator — allocating a math/rand state per sample would dominate
	// the whole simulation.
	h := uint64(mix(b.seed, int64(lo), int64(hi), block))
	switch b.Kind {
	case FadingRayleigh:
		// Unit-mean exponential power gain: g = -ln(U).
		return xrand.RayleighPowerDBAt(splitUniform(&h))
	case FadingRician:
		k := units.DB(b.RicianKdB).LinearRatio()
		losAmp := math.Sqrt(k / (k + 1))
		sigma := math.Sqrt(1 / (2 * (k + 1)))
		// Box–Muller from two uniforms.
		u1, u2 := splitUniform(&h), splitUniform(&h)
		r := math.Sqrt(-2 * math.Log(u1))
		z1 := r * math.Cos(2*math.Pi*u2)
		z2 := r * math.Sin(2*math.Pi*u2)
		re := losAmp + sigma*z1
		im := sigma * z2
		return 10 * math.Log10(re*re+im*im)
	default:
		return 0
	}
}

// splitUniform advances a splitmix64 state and maps the output to (0, 1].
func splitUniform(h *uint64) float64 {
	*h += 0x9e3779b97f4a7c15
	z := *h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Top 53 bits to (0,1]; never exactly 0 so -ln is finite.
	return (float64(z>>11) + 1) / (1 << 53)
}

// mix folds the identifiers into one 64-bit seed (splitmix64 finalizer).
func mix(vs ...int64) int64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vs {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	v := int64(h)
	if v == 0 {
		v = 1
	}
	return v
}
