package radio

import (
	"math"

	"repro/internal/units"
	"repro/internal/xrand"
)

// Fading identifies the fast-fading model applied on top of path loss and
// shadowing.
type Fading int

const (
	// FadingNone disables fast fading.
	FadingNone Fading = iota
	// FadingRayleigh is the UMi NLOS fast fading of Table I: a unit-mean
	// exponentially distributed power gain (Rayleigh envelope).
	FadingRayleigh
	// FadingRician approximates a LOS-dominated link with Rician K-factor
	// KdB (see Channel.RicianKdB).
	FadingRician
)

// String implements fmt.Stringer for configuration tables.
func (f Fading) String() string {
	switch f {
	case FadingNone:
		return "none"
	case FadingRayleigh:
		return "UMi (NLOS) Rayleigh"
	case FadingRician:
		return "Rician"
	default:
		return "unknown"
	}
}

// Channel composes the deterministic path loss with stochastic shadowing and
// fast fading. It is the single point the protocol layers use to ask "what
// power does receiver j see when device i transmits?", i.e. eq. (9):
//
//	p*** = p* + 10·n·log10(r/r0) + x
//
// generalised to an arbitrary PathLoss and an optional fading term.
type Channel struct {
	// Model is the deterministic path-loss model.
	Model PathLoss
	// ShadowSigmaDB is the log-normal shadowing standard deviation in dB
	// (Table I: 10 dB). Zero disables shadowing.
	ShadowSigmaDB float64
	// Fading selects the fast-fading model.
	Fading Fading
	// RicianKdB is the Rician K-factor in dB, used when Fading ==
	// FadingRician.
	RicianKdB float64

	shadow *xrand.Stream
	fade   *xrand.Stream
}

// NewChannel builds a channel drawing its stochastic terms from the named
// streams "shadowing" and "fading" of the given factory.
func NewChannel(model PathLoss, shadowSigmaDB float64, fading Fading, streams *xrand.Streams) *Channel {
	return &Channel{
		Model:         model,
		ShadowSigmaDB: shadowSigmaDB,
		Fading:        fading,
		RicianKdB:     6,
		shadow:        streams.Get("shadowing"),
		fade:          streams.Get("fading"),
	}
}

// PaperChannel returns the channel configured exactly as Table I: dual-slope
// path loss, 10 dB shadowing, UMi NLOS (Rayleigh) fast fading.
func PaperChannel(streams *xrand.Streams) *Channel {
	return NewChannel(PaperDualSlope(), 10, FadingRayleigh, streams)
}

// MeanReceivedPower returns the expected received power at distance d when
// transmitting at txPower — path loss only, no shadowing or fading. This is
// eq. (7)/(10)'s deterministic part and what an RSSI-averaging receiver
// converges to.
func (c *Channel) MeanReceivedPower(txPower units.DBm, d units.Metre) units.DBm {
	return txPower.Sub(c.Model.Loss(d))
}

// Sample returns one received-power sample at distance d: mean received
// power plus a fresh shadowing draw plus a fresh fading draw. Each call is
// an independent channel realisation, modelling a new PS transmission.
func (c *Channel) Sample(txPower units.DBm, d units.Metre) units.DBm {
	return c.SampleMean(c.MeanReceivedPower(txPower, d))
}

// SampleMean is Sample with the deterministic part already in hand: it adds
// fresh shadowing and fading draws from the channel's shared streams to a
// precomputed mean received power. Callers holding a link-geometry cache
// (rach.LinkIndex) use it to skip the per-sample path-loss evaluation; the
// draw sequence is exactly Sample's, so the two are interchangeable bit for
// bit when the mean matches.
func (c *Channel) SampleMean(mean units.DBm) units.DBm {
	rx, _ := c.SampleAtLeast(nil, mean, units.DBm(math.Inf(-1)))
	return rx
}

// SampleFromMean is SampleMean with the shadowing and fading terms drawn
// from src instead of the channel's own shared streams. Giving each
// transmitter its own stream makes concurrent sampling deterministic: the
// draws a transmitter consumes depend only on its own sample sequence, not
// on global call order. Draw consumption is conditional exactly as
// SampleMean's: no shadowing draw when σ = 0, no fading draw for
// FadingNone.
func (c *Channel) SampleFromMean(src *xrand.Stream, mean units.DBm) units.DBm {
	rx, _ := c.SampleAtLeast(src, mean, units.DBm(math.Inf(-1)))
	return rx
}

// SampleAtLeast draws one received-power sample on top of mean and reports
// whether it meets the detection threshold thr: from src like SampleFromMean,
// or from the shared streams like SampleMean when src is nil. It consumes
// exactly their draws, and whenever ok the sample is theirs bit for bit.
//
// Callers that drop sub-threshold samples anyway should use it: under
// Rayleigh fading it draws the uniform behind the gain and, when even the
// gain's upper bound (xrand.RayleighPowerDBBounds) leaves the sample below
// thr, rejects without computing the gain's two logarithms. The decision is
// still exact, because float addition rounds monotonically. A rejected
// sample's power is not computed and reads −Inf. Rician and unfaded
// channels always take the exact sum.
func (c *Channel) SampleAtLeast(src *xrand.Stream, mean, thr units.DBm) (rx units.DBm, ok bool) {
	shadow, fade := src, src
	if src == nil {
		shadow, fade = c.shadow, c.fade
	}
	p := mean
	if c.ShadowSigmaDB != 0 && shadow != nil {
		p = p.Add(units.DB(shadow.LogNormalDB(c.ShadowSigmaDB)))
	}
	if fade != nil {
		switch c.Fading {
		case FadingRayleigh:
			u := fade.RayleighUniform()
			if _, hi := xrand.RayleighPowerDBBounds(u); !p.Add(units.DB(hi)).AtLeast(thr) {
				return units.DBm(math.Inf(-1)), false
			}
			p = p.Add(units.DB(xrand.RayleighPowerDBAt(u)))
		case FadingRician:
			p = p.Add(units.DB(ricianPowerDB(fade, c.RicianKdB)))
		}
	}
	return p, p.AtLeast(thr)
}

// ricianPowerDB draws the power gain (dB) of a unit-mean Rician channel with
// K-factor kDB, via the standard two-Gaussian construction: a fixed LOS
// component of power K/(K+1) plus a scattered complex Gaussian of power
// 1/(K+1).
func ricianPowerDB(s *xrand.Stream, kDB float64) float64 {
	k := units.DB(kDB).LinearRatio()
	losAmp := math.Sqrt(k / (k + 1))
	scatterSigma := math.Sqrt(1 / (2 * (k + 1)))
	re := losAmp + scatterSigma*s.Norm()
	im := scatterSigma * s.Norm()
	g := re*re + im*im
	return float64(units.DBFromLinear(g))
}
