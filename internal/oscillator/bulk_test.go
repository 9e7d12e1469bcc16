package oscillator

import (
	"math/rand"
	"testing"
)

// cloneOsc copies an oscillator's full configuration so a reference twin can
// be driven independently. Fresh oscillators share no mutable state.
func cloneOsc(src *Oscillator) *Oscillator {
	o := New(src.Phase, src.PeriodSlots, src.Coupling)
	o.JumpsPerCycle = src.JumpsPerCycle
	o.Rate = src.Rate
	return o
}

// randomRoster builds n oscillators with varied phases, drift rates and jump
// budgets — every edge the bulk path must reproduce.
func randomRoster(rng *rand.Rand, n int) ([]*Oscillator, []*Oscillator) {
	bulk := make([]*Oscillator, n)
	ref := make([]*Oscillator, n)
	for i := range bulk {
		o := New(rng.Float64(), 40+rng.Intn(80), DefaultCoupling())
		o.Rate = 1 + (rng.Float64()-0.5)*0.02 // ±1% drift
		if rng.Intn(3) == 0 {
			o.JumpsPerCycle = 1 + rng.Intn(2)
		}
		bulk[i] = o
		ref[i] = cloneOsc(o)
	}
	return bulk, ref
}

// TestBulkAdvanceAllMatchesAdvance is the bit-identity property test: a
// roster driven through Bulk.AdvanceAll (lazy, fire-scheduled) must produce
// exactly the fires, phases and segment trajectories of a twin roster driven
// by per-oscillator Advance every slot — including fire resets (absorption
// via OnPulse pushing a phase to threshold).
func TestBulkAdvanceAllMatchesAdvance(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pulseProb float64
	}{
		{"pure-ramp", 0},
		{"coupled", 0.15},
		{"dense-coupling", 0.6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			oscs, refs := randomRoster(rng, 60)
			b := NewBulk(oscs)
			var fired []int
			const slots = 500
			for slot := int64(1); slot <= slots; slot++ {
				// Reference: eager per-oscillator stepping.
				var refFired []int
				for i, o := range refs {
					if o.Advance(slot) {
						refFired = append(refFired, i)
					}
				}
				// Bulk: lazy fire-scheduled stepping.
				fired = b.AdvanceAll(0, b.Len(), slot, fired[:0])
				if len(fired) != len(refFired) {
					t.Fatalf("slot %d: bulk fired %v, reference fired %v", slot, fired, refFired)
				}
				for k := range fired {
					if fired[k] != refFired[k] {
						t.Fatalf("slot %d: bulk fired %v, reference fired %v", slot, fired, refFired)
					}
				}
				// Inject identical pulses into both twins: receivers chosen
				// from the same deterministic draw sequence. The bulk twin
				// materializes first — exactly what the engines do before
				// OnPulse.
				for i := range oscs {
					if rng.Float64() >= tc.pulseProb {
						continue
					}
					oscs[i].AdvanceTo(slot)
					bf := oscs[i].OnPulse(slot)
					rf := refs[i].OnPulse(slot)
					if bf != rf {
						t.Fatalf("slot %d member %d: OnPulse fired bulk=%v ref=%v", slot, i, bf, rf)
					}
					b.Refresh(i)
				}
				// Fired members' cached entries are stale by contract;
				// refresh them after the "cascade".
				for _, i := range fired {
					b.Refresh(i)
				}
				// Periodically materialize everything and compare phases
				// exactly.
				if slot%97 == 0 || slot == slots {
					b.MaterializeAll(0, b.Len(), slot)
					for i := range oscs {
						if oscs[i].Phase != refs[i].Phase {
							t.Fatalf("slot %d member %d: phase bulk=%v ref=%v", slot, i, oscs[i].Phase, refs[i].Phase)
						}
					}
				}
			}
		})
	}
}

// TestBulkNextFireMin pins the range-minimum scan against the cached values.
func TestBulkNextFireMin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	oscs, _ := randomRoster(rng, 40)
	b := NewBulk(oscs)
	for _, r := range [][2]int{{0, 40}, {0, 1}, {13, 27}, {39, 40}} {
		want := NeverFires
		for i := r[0]; i < r[1]; i++ {
			if b.NextFire(i) < want {
				want = b.NextFire(i)
			}
		}
		if got := b.NextFireMin(r[0], r[1]); got != want {
			t.Errorf("NextFireMin(%d,%d) = %d, want %d", r[0], r[1], got, want)
		}
	}
}

// TestBulkDropRevive pins the deschedule lifecycle: dropped members neither
// fire nor materialize; revived members rejoin with an exact prediction.
func TestBulkDropRevive(t *testing.T) {
	oscs := []*Oscillator{New(0.5, 100, DefaultCoupling()), New(0.25, 100, DefaultCoupling())}
	b := NewBulk(oscs)
	at0 := b.NextFire(0)
	b.Drop(0)
	if b.NextFire(0) != NeverFires || !b.Dropped(0) {
		t.Fatal("dropped member still scheduled")
	}
	if got := b.NextFireMin(0, 2); got != b.NextFire(1) {
		t.Fatalf("min should come from live member: got %d", got)
	}
	var fired []int
	for s := int64(1); s <= 200; s++ {
		if b.NextFireMin(0, 2) == s {
			fired = b.AdvanceAll(0, 2, s, fired)
		}
	}
	for _, m := range fired {
		if m == 0 {
			t.Fatal("dropped member fired")
		}
	}
	if b.Revive(0) != at0 {
		t.Fatalf("revived member prediction changed: %d vs %d", b.NextFire(0), at0)
	}
}
