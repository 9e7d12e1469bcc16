package radio

import (
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// thresholdSweep calls visit with every mean from thr−25 dB to thr+25 dB in
// 0.001 dB steps, each with three thresholds: thr itself, and — once the
// reference sample rx for that call is known — rx exactly and the next
// float above rx, so the decision is exercised exactly at the threshold.
func thresholdSweep(thr units.DBm, visit func(mean units.DBm, pick func(rx units.DBm) units.DBm)) {
	for _, pick := range []func(rx units.DBm) units.DBm{
		func(units.DBm) units.DBm { return thr },
		func(rx units.DBm) units.DBm { return rx },
		func(rx units.DBm) units.DBm { return units.DBm(math.Nextafter(float64(rx), math.Inf(1))) },
	} {
		for i := -25000; i <= 25000; i++ {
			visit(thr+units.DBm(float64(i)/1000), pick)
		}
	}
}

// TestSampleAtLeastMatchesSampleFromMean is the differential check of the
// early-reject sampler on per-sender streams: over means sweeping the
// threshold, SampleAtLeast decides exactly as SampleFromMean(...).AtLeast,
// returns its sample whenever delivered, and leaves the stream at the same
// cursor after every call. A third twin stream recomputes the sample from
// the raw draws (shadowing, then RayleighPowerDB), pinning SampleFromMean to
// the plain sum.
func TestSampleAtLeastMatchesSampleFromMean(t *testing.T) {
	for _, fading := range []Fading{FadingRayleigh, FadingRician, FadingNone} {
		for _, sigma := range []float64{10, 0} {
			c := NewChannel(PaperDualSlope(), sigma, fading, xrand.NewStreams(1))
			ref, got, raw := xrand.NewStream(5), xrand.NewStream(5), xrand.NewStream(5)
			calls := 0
			thresholdSweep(-95, func(mean units.DBm, pick func(units.DBm) units.DBm) {
				want := c.SampleFromMean(ref, mean)
				thr := pick(want)
				rx, ok := c.SampleAtLeast(got, mean, thr)
				if ok != want.AtLeast(thr) || (ok && rx != want) {
					t.Fatalf("%v σ=%v call %d: mean %v thr %v: got (%v, %v), want (%v, %v)",
						fading, sigma, calls, mean, thr, rx, ok, want, want.AtLeast(thr))
				}
				if got.Pos() != ref.Pos() {
					t.Fatalf("%v σ=%v call %d: cursor %d, want %d", fading, sigma, calls, got.Pos(), ref.Pos())
				}
				if fading == FadingRayleigh {
					p := mean
					if sigma != 0 {
						p = p.Add(units.DB(raw.LogNormalDB(sigma)))
					}
					if p = p.Add(units.DB(raw.RayleighPowerDB())); p != want {
						t.Fatalf("σ=%v call %d: SampleFromMean %v, raw draws sum to %v", sigma, calls, want, p)
					}
				}
				calls++
			})
		}
	}
}

// TestSampleAtLeastMatchesSampleMean is the same differential check on the
// channel's shared shadowing and fading streams (src == nil against
// SampleMean), comparing both shared cursors after every call.
func TestSampleAtLeastMatchesSampleMean(t *testing.T) {
	for _, fading := range []Fading{FadingRayleigh, FadingRician} {
		refStreams, gotStreams := xrand.NewStreams(9), xrand.NewStreams(9)
		ref := NewChannel(PaperDualSlope(), 10, fading, refStreams)
		got := NewChannel(PaperDualSlope(), 10, fading, gotStreams)
		calls := 0
		thresholdSweep(-95, func(mean units.DBm, pick func(units.DBm) units.DBm) {
			want := ref.SampleMean(mean)
			thr := pick(want)
			rx, ok := got.SampleAtLeast(nil, mean, thr)
			if ok != want.AtLeast(thr) || (ok && rx != want) {
				t.Fatalf("%v call %d: mean %v thr %v: got (%v, %v), want (%v, %v)",
					fading, calls, mean, thr, rx, ok, want, want.AtLeast(thr))
			}
			for _, name := range []string{"shadowing", "fading"} {
				if g, w := gotStreams.Get(name).Pos(), refStreams.Get(name).Pos(); g != w {
					t.Fatalf("%v call %d: %s cursor %d, want %d", fading, calls, name, g, w)
				}
			}
			calls++
		})
	}
}

// TestSampleAtLeastRejectsEarly pins that the bound does its job on the
// paper's channel: with means sweeping ±25 dB around the threshold, most
// sub-threshold samples are rejected before the fading transform (their
// power reads −Inf), and no delivered sample is.
func TestSampleAtLeastRejectsEarly(t *testing.T) {
	c := PaperChannel(xrand.NewStreams(1))
	src := xrand.NewStream(3)
	var missed, early int
	for i := -25000; i <= 25000; i++ {
		rx, ok := c.SampleAtLeast(src, units.DBm(-95+float64(i)/1000), -95)
		if ok {
			continue
		}
		missed++
		if math.IsInf(float64(rx), -1) {
			early++
		}
	}
	if frac := float64(early) / float64(missed); frac < 0.9 {
		t.Errorf("%d of %d sub-threshold samples rejected early (%.1f%%), want ≥ 90%%", early, missed, 100*frac)
	}
}
