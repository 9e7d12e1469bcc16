package oscillator

import (
	"math/rand"
	"testing"
)

// Property tests for the lazy-advancement API: NextFire and AdvanceTo must
// agree with slot-by-slot Advance bit for bit — same firing slot, same
// materialized phase at every step. The run engine's next-event stepping
// rests entirely on this equivalence.

// nextFireBySteps is the oracle: call Advance one slot at a time on a
// behavioral twin and report the slot of the first fire (or ok=false within
// the horizon).
func nextFireBySteps(o *Oscillator, horizon int64) (int64, bool) {
	for s := o.lastSlot + 1; s <= o.lastSlot+horizon; {
		if o.Advance(s) {
			return s, true
		}
		s++
	}
	return 0, false
}

// twin builds two identically configured oscillators so one can run the
// analytic path and the other the slot-by-slot oracle.
func twin(phase float64, period int, mutate func(*Oscillator)) (*Oscillator, *Oscillator) {
	a := New(phase, period, DefaultCoupling())
	b := New(phase, period, DefaultCoupling())
	if mutate != nil {
		mutate(a)
		mutate(b)
	}
	return a, b
}

func TestNextFireMatchesAdvanceSweep(t *testing.T) {
	rates := []float64{0, 1, 0.5, 2, 0.9997, 1.0003, 1.000001}
	periods := []int{100, 97, 64, 2}
	phases := []float64{0, 1e-15, 0.1, 0.5, 0.99, 0.999999999999, Threshold}
	for _, rate := range rates {
		for _, period := range periods {
			for _, phase := range phases {
				a, b := twin(phase, period, func(o *Oscillator) { o.Rate = rate })
				at, ok := a.NextFire()
				if !ok {
					t.Fatalf("rate=%v period=%d phase=%v: NextFire reported never", rate, period, phase)
				}
				want, wok := nextFireBySteps(b, int64(4*period)+4)
				if !wok {
					t.Fatalf("rate=%v period=%d phase=%v: oracle never fired", rate, period, phase)
				}
				if at != want {
					t.Errorf("rate=%v period=%d phase=%v: NextFire=%d, Advance fired at %d",
						rate, period, phase, at, want)
				}
				// The prediction must also be exact for the analytic path:
				// advancing a to one slot before must not fire, and
				// advancing to the slot must.
				if at > a.lastSlot+1 && a.AdvanceTo(at-1) {
					t.Errorf("rate=%v period=%d phase=%v: fired before the predicted slot", rate, period, phase)
				}
				if !a.AdvanceTo(at) {
					t.Errorf("rate=%v period=%d phase=%v: no fire at the predicted slot", rate, period, phase)
				}
			}
		}
	}
}

// Randomized long-run equivalence: interleave ramping, PRC jumps and
// external writes, and check that AdvanceTo lands on exactly the phase the
// slot-by-slot oracle computes, fire for fire.
func TestAdvanceToMatchesAdvanceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		period := 2 + rng.Intn(150)
		phase := rng.Float64()
		rate := 1.0
		if trial%3 == 1 {
			rate = 0.5 + rng.Float64()
		}
		a, b := twin(phase, period, func(o *Oscillator) { o.Rate = rate })
		for ev := 0; ev < 20; ev++ {
			// Fast-forward a random span with the analytic path, stepping
			// fires explicitly like the run engine does.
			span := int64(1 + rng.Intn(2*period))
			target := a.lastSlot + span
			for a.lastSlot < target {
				stop := target
				if at, ok := a.NextFire(); ok && at < stop {
					stop = at
				}
				aFired := a.AdvanceTo(stop)
				var bFired bool
				for b.lastSlot < stop {
					bFired = b.Advance(b.lastSlot + 1)
				}
				if aFired != bFired {
					t.Fatalf("trial %d: fire mismatch at slot %d: AdvanceTo=%v Advance=%v",
						trial, stop, aFired, bFired)
				}
				if a.Phase != b.Phase {
					t.Fatalf("trial %d: phase mismatch at slot %d: AdvanceTo=%v Advance=%v",
						trial, stop, a.Phase, b.Phase)
				}
			}
			// Occasionally hit both with the same discontinuity.
			switch rng.Intn(3) {
			case 0:
				a.OnPulse(a.lastSlot)
				b.OnPulse(b.lastSlot)
			case 1:
				p := rng.Float64()
				a.Phase = p
				a.Rebase(a.lastSlot)
				b.Phase = p // the slot path re-detects the write on Advance
			}
		}
	}
}

// A phase already at (or within fireEpsilon of) the threshold fires on the
// very next ramp step.
func TestNextFireAtThresholdBoundary(t *testing.T) {
	for _, phase := range []float64{Threshold, Threshold - 1e-13, Threshold - fireEpsilon} {
		a, b := twin(phase, 100, nil)
		at, ok := a.NextFire()
		if !ok || at != 1 {
			t.Errorf("phase=%v: NextFire=(%d,%v), want slot 1", phase, at, ok)
		}
		if !b.Advance(1) {
			t.Errorf("phase=%v: Advance(1) did not fire", phase)
		}
	}
}

// The refractory window and the jump budget gate OnPulse only — the
// free-running prediction must ignore them entirely.
func TestNextFireUnaffectedByPulseGates(t *testing.T) {
	a, b := twin(0.3, 100, func(o *Oscillator) { o.JumpsPerCycle = 1 })
	at, ok := a.NextFire()
	want, wok := nextFireBySteps(b, 300)
	if !ok || !wok || at != want {
		t.Fatalf("gated oscillator: NextFire=(%d,%v), oracle=(%d,%v)", at, ok, want, wok)
	}
	// A second pulse in one cycle finds the budget spent: it is ignored and
	// must not move the prediction the first pulse's jump set.
	a, b = twin(0.3, 100, func(o *Oscillator) { o.JumpsPerCycle = 1 })
	a.AdvanceTo(10)
	for s := int64(1); s <= 10; s++ {
		b.Advance(s)
	}
	a.OnPulse(10)
	b.OnPulse(10)
	jumped, _ := a.NextFire()
	if jumped >= at {
		t.Fatalf("the budgeted pulse did not advance the fire: %d, free-running %d", jumped, at)
	}
	a.OnPulse(10)
	b.OnPulse(10)
	at, _ = a.NextFire()
	want, _ = nextFireBySteps(b, 300)
	if at != want || at != jumped {
		t.Fatalf("budget-gated pulse: NextFire=%d, oracle=%d, after the first jump %d", at, want, jumped)
	}
	// A pulse inside the refractory window (the fire's own slot) is ignored
	// and must not move the prediction either.
	a.AdvanceTo(at) // fire: refractory opens
	b.AdvanceTo(at)
	a.OnPulse(at)
	b.OnPulse(at)
	at2, _ := a.NextFire()
	want2, _ := nextFireBySteps(b, 300)
	if at2 != want2 {
		t.Errorf("post-refractory-pulse: NextFire=%d, oracle=%d", at2, want2)
	}
	if at2 != at+100 {
		t.Errorf("refractory-ignored pulse moved the schedule: %d, want %d", at2, at+100)
	}
}

// A coupled jump shortens the schedule; NextFire must track the rebased
// segment exactly.
func TestNextFireAfterPulseJump(t *testing.T) {
	a, b := twin(0.7, 100, nil)
	a.AdvanceTo(10)
	for s := int64(1); s <= 10; s++ {
		b.Advance(s)
	}
	a.OnPulse(10)
	b.OnPulse(10)
	at, ok := a.NextFire()
	want, wok := nextFireBySteps(b, 300)
	if !ok || !wok || at != want {
		t.Fatalf("post-jump: NextFire=(%d,%v), oracle=(%d,%v)", at, ok, want, wok)
	}
}

// A stopped clock (Rate so small the horizon is unrepresentable) reports
// "never" instead of looping.
func TestNextFireNeverFires(t *testing.T) {
	o := New(0, 100, DefaultCoupling())
	o.Rate = 1e-18
	if at, ok := o.NextFire(); ok {
		t.Errorf("stalled oscillator predicted a fire at %d", at)
	}
}
