package oscillator

import (
	"math"
	"testing"
)

// Tests for the slotted-radio extensions of the oscillator: the per-cycle
// jump budget (MEMFIS-style one adjustment per frame) and clock-rate drift.

func TestJumpsPerCycleBudget(t *testing.T) {
	o := New(0.5, 100, DefaultCoupling())
	o.JumpsPerCycle = 1
	before := o.Phase
	if o.OnPulse(10) {
		t.Fatal("first pulse should not fire from phase 0.5")
	}
	if o.Phase <= before {
		t.Fatal("first pulse should advance the phase")
	}
	mid := o.Phase
	if o.OnPulse(11) {
		t.Fatal("budget-exhausted pulse must not fire")
	}
	if o.Phase != mid {
		t.Error("budget-exhausted pulse must not change the phase")
	}
	// The budget refills when the oscillator fires.
	for slot := int64(12); ; slot++ {
		if o.Advance(slot) {
			break
		}
	}
	after := o.Phase
	o.Advance(1000) // move out of the refractory window
	prev := o.Phase
	o.OnPulse(1000)
	if o.Phase <= prev {
		t.Error("budget should refill after the oscillator's own fire")
	}
	_ = after
}

func TestJumpsPerCycleZeroIsUnlimited(t *testing.T) {
	o := New(0.1, 100, DefaultCoupling())
	o.JumpsPerCycle = 0
	p := o.Phase
	for i := 0; i < 5; i++ {
		o.OnPulse(int64(10 + i))
		if o.Phase <= p {
			t.Fatalf("pulse %d did not advance phase", i)
		}
		p = o.Phase
	}
}

func TestRateDrift(t *testing.T) {
	fast := New(0, 100, DefaultCoupling())
	fast.Rate = 1.02
	slow := New(0, 100, DefaultCoupling())
	slow.Rate = 0.98
	fastFires, slowFires := 0, 0
	for slot := int64(1); slot <= 10000; slot++ {
		if fast.Advance(slot) {
			fastFires++
		}
		if slow.Advance(slot) {
			slowFires++
		}
	}
	if fastFires <= slowFires {
		t.Errorf("fast clock fired %d times, slow %d — fast should lead", fastFires, slowFires)
	}
	// 2% rate difference over 100 periods: expect ~102 vs ~98 fires.
	if math.Abs(float64(fastFires)-102) > 2 || math.Abs(float64(slowFires)-98) > 2 {
		t.Errorf("fires = %d/%d, want ~102/~98", fastFires, slowFires)
	}
}

func TestRateZeroTreatedAsNominal(t *testing.T) {
	o := New(0, 100, DefaultCoupling())
	o.Rate = 0
	fires := 0
	for slot := int64(1); slot <= 1000; slot++ {
		if o.Advance(slot) {
			fires++
		}
	}
	if fires != 10 {
		t.Errorf("rate 0 fired %d times in 1000 slots, want 10 (nominal)", fires)
	}
}

func TestDriftedPairStaysLockedUnderCoupling(t *testing.T) {
	// Two oscillators with 1% rate skew, coupled both ways: absorption
	// re-locks them every period, so fires stay within one slot.
	a := New(0.2, 100, DefaultCoupling())
	b := New(0.2, 100, DefaultCoupling())
	a.Rate, b.Rate = 1.01, 0.99
	lastA, lastB := int64(-1), int64(-1)
	maxGap := int64(0)
	for slot := int64(1); slot <= 20000; slot++ {
		fa := a.Advance(slot)
		fb := b.Advance(slot)
		if fa && !fb {
			b.OnPulse(slot)
			// absorption may fire b in the same slot
			if b.Phase == 0 {
				fb = true
			}
		} else if fb && !fa {
			a.OnPulse(slot)
			if a.Phase == 0 {
				fa = true
			}
		}
		if fa {
			lastA = slot
		}
		if fb {
			lastB = slot
		}
		if lastA > 0 && lastB > 0 && slot > 1000 {
			gap := lastA - lastB
			if gap < 0 {
				gap = -gap
			}
			if gap > maxGap && gap < 50 { // ignore mid-period comparisons
				maxGap = gap
			}
		}
	}
	if maxGap > 3 {
		t.Errorf("coupled drifted pair diverged by %d slots", maxGap)
	}
}
