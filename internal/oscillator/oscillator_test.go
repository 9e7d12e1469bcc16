package oscillator

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewCouplingMatchesEq5(t *testing.T) {
	a, eps := 3.0, 0.1
	c := NewCoupling(a, eps)
	wantAlpha := math.Exp(a * eps)
	wantBeta := (math.Exp(a*eps) - 1) / (math.Exp(a) - 1)
	if math.Abs(c.Alpha-wantAlpha) > 1e-12 {
		t.Errorf("alpha = %v, want %v", c.Alpha, wantAlpha)
	}
	if math.Abs(c.Beta-wantBeta) > 1e-12 {
		t.Errorf("beta = %v, want %v", c.Beta, wantBeta)
	}
	if !c.Converges() {
		t.Error("a>0, ε>0 must satisfy the convergence condition")
	}
}

func TestNewCouplingPanicsOnInvalid(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.1}, {3, 0}, {-1, 0.1}, {3, -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCoupling(%v,%v) should panic", bad[0], bad[1])
				}
			}()
			NewCoupling(bad[0], bad[1])
		}()
	}
}

func TestCouplingConvergenceConditionProperty(t *testing.T) {
	// For any a>0, ε>0: α>1 and β>0 (the Mirollo–Strogatz condition).
	f := func(aRaw, eRaw float64) bool {
		a := 0.01 + math.Abs(math.Mod(aRaw, 10))
		e := 0.01 + math.Abs(math.Mod(eRaw, 2))
		return NewCoupling(a, e).Converges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJumpClampsAtThreshold(t *testing.T) {
	c := DefaultCoupling()
	if got := c.Jump(0.99); got != Threshold {
		t.Errorf("Jump(0.99) = %v, want clamp to %v", got, Threshold)
	}
	if got := c.Jump(0); math.Abs(got-c.Beta) > 1e-12 {
		t.Errorf("Jump(0) = %v, want β=%v", got, c.Beta)
	}
}

func TestJumpMonotoneProperty(t *testing.T) {
	c := DefaultCoupling()
	f := func(x, y float64) bool {
		x = math.Abs(math.Mod(x, 1))
		y = math.Abs(math.Mod(y, 1))
		if x > y {
			x, y = y, x
		}
		return c.Jump(x) <= c.Jump(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJumpAdvancesPhaseProperty(t *testing.T) {
	// With α>1, β>0 a pulse always advances phase (never retards).
	c := DefaultCoupling()
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1))
		return c.Jump(x) >= x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOscillatorFreeRunPeriod(t *testing.T) {
	o := New(0, 100, DefaultCoupling())
	fires := 0
	var lastFire int64
	var gaps []int64
	for slot := int64(1); slot <= 1000; slot++ {
		if o.Advance(slot) {
			if fires > 0 {
				gaps = append(gaps, slot-lastFire)
			}
			lastFire = slot
			fires++
		}
	}
	if fires != 10 {
		t.Fatalf("free-running oscillator fired %d times in 1000 slots, want 10", fires)
	}
	for _, g := range gaps {
		if g != 100 {
			t.Fatalf("fire gap %d, want 100", g)
		}
	}
}

func TestNewPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("period 0 should panic")
		}
	}()
	New(0, 0, DefaultCoupling())
}

func TestNewClampsPhase(t *testing.T) {
	if o := New(-0.5, 10, DefaultCoupling()); o.Phase != 0 {
		t.Errorf("negative phase clamped to %v", o.Phase)
	}
	if o := New(2, 10, DefaultCoupling()); o.Phase != Threshold {
		t.Errorf("excess phase clamped to %v", o.Phase)
	}
}

func TestOnPulseRefractory(t *testing.T) {
	o := New(0, 100, DefaultCoupling())
	// Fire at slot 50 (walk the phase there).
	var fireSlot int64
	for slot := int64(1); ; slot++ {
		if o.Advance(slot) {
			fireSlot = slot
			break
		}
	}
	// A pulse in the same slot (inside the refractory window) is ignored.
	phase := o.Phase
	if o.OnPulse(fireSlot) {
		t.Error("refractory pulse should not reach threshold")
	}
	if o.Phase != phase {
		t.Error("refractory pulse should not change phase")
	}
	// After the window, pulses apply again.
	o.Advance(fireSlot + 1)
	before := o.Phase
	o.OnPulse(fireSlot + 1)
	if o.Phase <= before {
		t.Error("post-refractory pulse should advance phase")
	}
}

func TestOnPulseAbsorptionFiresImmediately(t *testing.T) {
	o := New(0.95, 100, NewCoupling(3, 0.5)) // big jump
	if !o.OnPulse(10) {
		t.Fatal("pulse from phase 0.95 with strong coupling should fire (absorption)")
	}
	if o.Phase != 0 {
		t.Errorf("phase after absorption fire = %v, want 0", o.Phase)
	}
	// The fire opened a refractory window: a second same-slot pulse is a no-op.
	if o.OnPulse(10) {
		t.Error("second pulse in the same slot should be ignored")
	}
}

// TestSlotsToFire checks NextFire's prediction from slot 0, where the
// predicted fire slot is also the number of Advance calls until it.
func TestSlotsToFire(t *testing.T) {
	o := New(0, 100, DefaultCoupling())
	if got, _ := o.NextFire(); got != 100 {
		t.Errorf("slots to fire from 0 = %d, want 100", got)
	}
	o.Phase = 0.995
	if got, _ := o.NextFire(); got != 1 {
		t.Errorf("slots to fire from 0.995 = %d, want 1", got)
	}
	// Walk and verify the prediction.
	o2 := New(0.3, 50, DefaultCoupling())
	predict, _ := o2.NextFire()
	steps := int64(0)
	for slot := int64(1); ; slot++ {
		steps++
		if o2.Advance(slot) {
			break
		}
	}
	if steps != predict {
		t.Errorf("predicted %d slots to fire, took %d", predict, steps)
	}
}

func TestOrderParameter(t *testing.T) {
	if got := OrderParameter([]float64{0.3, 0.3, 0.3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical phases r = %v, want 1", got)
	}
	// Two opposite phases cancel.
	if got := OrderParameter([]float64{0, 0.5}); got > 1e-9 {
		t.Errorf("antiphase r = %v, want ~0", got)
	}
	// Empty input is defined as 1 (vacuously synchronized).
	if got := OrderParameter(nil); got != 1 {
		t.Errorf("empty r = %v, want 1", got)
	}
}

func TestOrderParameterRangeProperty(t *testing.T) {
	s := xrand.NewStream(5)
	for trial := 0; trial < 100; trial++ {
		n := 2 + s.Intn(50)
		phases := make([]float64, n)
		for i := range phases {
			phases[i] = s.Float64()
		}
		r := OrderParameter(phases)
		if r < 0 || r > 1+1e-12 {
			t.Fatalf("r = %v out of [0,1]", r)
		}
	}
}

func TestPhaseSpread(t *testing.T) {
	if got := PhaseSpread([]float64{0.2, 0.2}); got != 0 {
		t.Errorf("identical spread = %v, want 0", got)
	}
	if got := PhaseSpread([]float64{0.1}); got != 0 {
		t.Errorf("single-phase spread = %v, want 0", got)
	}
	// 0.98 and 0.02 are 0.04 apart on the circle.
	if got := PhaseSpread([]float64{0.98, 0.02}); math.Abs(got-0.04) > 1e-9 {
		t.Errorf("wraparound spread = %v, want 0.04", got)
	}
	if got := PhaseSpread([]float64{0, 0.25, 0.5, 0.75}); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("uniform spread = %v, want 0.75", got)
	}
}

func TestSyncDetector(t *testing.T) {
	d := NewSyncDetector(3, 0, 2)
	// Round 1: all three fire in slot 100.
	d.OnFire(100)
	d.OnFire(100)
	if d.OnFire(100) {
		t.Error("one stable round should not be enough with StableRounds=2")
	}
	// Round 2: all three in slot 200 → synced.
	d.OnFire(200)
	d.OnFire(200)
	if !d.OnFire(200) {
		t.Error("two stable rounds should trigger sync")
	}
	ok, at := d.Synced()
	if !ok || at != 200 {
		t.Errorf("Synced() = (%v,%v), want (true,200)", ok, at)
	}
	// Further fires keep reporting synced.
	if !d.OnFire(300) {
		t.Error("detector should stay synced")
	}
}

func TestSyncDetectorBrokenStreak(t *testing.T) {
	d := NewSyncDetector(2, 0, 2)
	d.OnFire(10)
	d.OnFire(10) // round 1 complete
	d.OnFire(20) // round 2 starts
	d.OnFire(25) // outside window: streak broken, new round starts at 25
	d.OnFire(25) // round complete (stable=1)
	d.OnFire(30)
	if !d.OnFire(30) {
		t.Error("two clean rounds after the break should sync")
	}
}

// A live set of one device is synchronized by its own fires: each fire
// opens and closes a round.
func TestSyncDetectorSingleDevice(t *testing.T) {
	d := NewSyncDetector(1, 0, 3)
	for _, slot := range []int64{100, 200} {
		if d.OnFire(slot) {
			t.Fatalf("synced after the fire at %d, want 3 stable rounds first", slot)
		}
	}
	if !d.OnFire(300) {
		t.Fatal("three fires of one device should sync with StableRounds=3")
	}
	if ok, at := d.Synced(); !ok || at != 300 {
		t.Errorf("Synced() = (%v,%v), want (true,300)", ok, at)
	}
}

func TestSyncDetectorWindow(t *testing.T) {
	d := NewSyncDetector(2, 3, 1)
	d.OnFire(10)
	if !d.OnFire(13) {
		t.Error("fires 3 slots apart should count with WindowSlots=3")
	}
}

func TestEnsembleMeshConvergence(t *testing.T) {
	// The Mirollo–Strogatz theorem: a fully meshed system with α>1, β>0
	// converges from (almost) any initial condition.
	s := xrand.NewStream(42)
	for trial := 0; trial < 5; trial++ {
		phases := make([]float64, 20)
		for i := range phases {
			phases[i] = s.Float64()
		}
		e := NewEnsemble(phases, 100, DefaultCoupling(), nil)
		at, ok := e.RunUntilSync(0, 3, 100000)
		if !ok {
			t.Fatalf("trial %d: mesh of 20 did not converge in 100k slots", trial)
		}
		if at <= 0 {
			t.Fatalf("trial %d: nonsense sync slot %d", trial, at)
		}
	}
}

func TestEnsembleLineTopologyConvergence(t *testing.T) {
	// Tree (here: path) topologies also synchronize — the property the
	// paper's ST method relies on (proved in [17]).
	s := xrand.NewStream(43)
	n := 10
	phases := make([]float64, n)
	for i := range phases {
		phases[i] = s.Float64()
	}
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			adj[i] = append(adj[i], i-1)
		}
		if i < n-1 {
			adj[i] = append(adj[i], i+1)
		}
	}
	e := NewEnsemble(phases, 100, NewCoupling(3, 0.3), adj)
	if _, ok := e.RunUntilSync(0, 3, 500000); !ok {
		t.Fatal("path topology did not converge")
	}
}

func TestEnsembleOrderParameterIncreases(t *testing.T) {
	s := xrand.NewStream(44)
	phases := make([]float64, 30)
	for i := range phases {
		phases[i] = s.Float64()
	}
	e := NewEnsemble(phases, 100, DefaultCoupling(), nil)
	r0 := OrderParameter(e.Phases())
	for i := 0; i < 5000; i++ {
		e.Step()
	}
	r1 := OrderParameter(e.Phases())
	if r1 <= r0 {
		t.Errorf("order parameter did not increase: %v -> %v", r0, r1)
	}
}

func TestEnsembleStepReturnsFired(t *testing.T) {
	e := NewEnsemble([]float64{1 - 1.0/10, 0}, 10, DefaultCoupling(), nil)
	fired := e.Step()
	if len(fired) != 1 || fired[0] != 0 {
		t.Errorf("fired = %v, want [0]", fired)
	}
	if e.Slot() != 1 {
		t.Errorf("slot = %d, want 1", e.Slot())
	}
}
