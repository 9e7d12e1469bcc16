package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestRayleighSplitMatchesWhole pins the split draw: RayleighUniform then
// RayleighPowerDBAt yields RayleighPowerDB's value and leaves the stream at
// the same cursor, draw after draw.
func TestRayleighSplitMatchesWhole(t *testing.T) {
	a, b := NewStream(31), NewStream(31)
	for i := 0; i < 10000; i++ {
		want := a.RayleighPowerDB()
		if got := RayleighPowerDBAt(b.RayleighUniform()); got != want {
			t.Fatalf("draw %d: split %v, whole %v", i, got, want)
		}
		if a.Pos() != b.Pos() {
			t.Fatalf("draw %d: split cursor %d, whole %d", i, b.Pos(), a.Pos())
		}
	}
}

// TestRayleighPowerDBBoundTable checks every bucket of the upper table: for
// binary exponent −k (k = 1…63) and top mantissa bits m, the bound read for
// any u in the bucket is the table entry — the transform at the bucket's
// lowest u plus the slack — and it is at least the exact transform at the
// lowest u, at that u's Nextafter neighbours, at the bucket's highest u and
// at 10k random u in the bucket. Reading the entry of another bucket (an
// index off by one in exponent or mantissa) or an entry lowered below the
// transform fails it.
func TestRayleighPowerDBBoundTable(t *testing.T) {
	checkBoundTable(t, func(lo, hi float64) float64 { return RayleighPowerDBAt(lo) + rayleighSlackDB },
		func(u float64) float64 { _, hi := RayleighPowerDBBounds(u); return hi }, true)
}

// TestRayleighPowerDBLowerBoundTable checks the lower table the same way:
// the entry read for any u in a bucket is the transform at the bucket's
// upper edge minus the slack (−Inf for the top bucket), and it is at most
// the exact transform everywhere in the bucket.
func TestRayleighPowerDBLowerBoundTable(t *testing.T) {
	if lo, _ := RayleighPowerDBBounds(math.Nextafter(1, 0)); !math.IsInf(lo, -1) {
		t.Fatalf("top bucket's lower bound = %v, want −Inf", lo)
	}
	checkBoundTable(t, func(lo, hi float64) float64 { return RayleighPowerDBAt(hi) - rayleighSlackDB },
		func(u float64) float64 { lo, _ := RayleighPowerDBBounds(u); return lo }, false)
}

// checkBoundTable walks every bucket [lo, hi) of one bound table: bound(u)
// must equal entry(lo, hi) for u in the bucket and lie on its side of the
// exact transform (above when upper) at the bucket's edges, their
// neighbours and random u inside.
func checkBoundTable(t *testing.T, entry func(lo, hi float64) float64, bound func(u float64) float64, upper bool) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	samples := 10000
	if testing.Short() {
		samples = 500
	}
	// check checks the bound at u against the exact transform there and,
	// for u inside the bucket under test, against the bucket's entry.
	check := func(u, want float64, inBucket bool) {
		t.Helper()
		if u < math.Ldexp(1, -63) || u >= 1 {
			return // outside RayleighUniform's range
		}
		b, f := bound(u), RayleighPowerDBAt(u)
		if upper && !(b >= f) || !upper && !(b <= f) {
			t.Fatalf("u = %v (bits %#x): bound %v on the wrong side of transform %v", u, math.Float64bits(u), b, f)
		}
		if inBucket && b != want {
			t.Fatalf("u = %v (bits %#x): bound %v, want the bucket's entry %v", u, math.Float64bits(u), b, want)
		}
	}
	for k := 1; k <= 63; k++ {
		for m := 0; m < 16; m++ {
			lo := math.Ldexp(1+float64(m)/16, -k)
			edge := math.Ldexp(1+float64(m+1)/16, -k)
			hi := math.Nextafter(edge, 0)
			want := entry(lo, edge)
			check(lo, want, true)
			check(math.Nextafter(lo, 1), want, true)
			check(hi, want, true)
			check(math.Nextafter(hi, 0), want, true)
			check(math.Nextafter(lo, 0), want, false) // the bucket below
			check(edge, want, false)                  // the bucket above
			loBits := math.Float64bits(lo)
			for i := 0; i < samples; i++ {
				check(math.Float64frombits(loBits|r.Uint64()&(1<<48-1)), want, true)
			}
		}
	}
}

// TestRayleighPowerDBBoundValues pins two entries by value: the largest
// gain (u = 2⁻⁶³) bounds at 16.40 dB, a median draw (u = 0.5) at −1.59 dB.
func TestRayleighPowerDBBoundValues(t *testing.T) {
	cases := []struct {
		u, want float64
	}{
		{math.Ldexp(1, -63), 16.4017},
		{0.5, -1.5917},
	}
	for _, c := range cases {
		if _, got := RayleighPowerDBBounds(c.u); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("bound at u = %v: %v, want ≈ %v", c.u, got, c.want)
		}
	}
}

// TestRayleighPowerDBBoundDomain pins the bounds' domain: they panic rather
// than read past the table for u outside [2⁻⁶³, 1).
func TestRayleighPowerDBBoundDomain(t *testing.T) {
	for _, u := range []float64{0, 1, math.Ldexp(1, -64), -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RayleighPowerDBBounds(%v) did not panic", u)
				}
			}()
			RayleighPowerDBBounds(u)
		}()
	}
}
