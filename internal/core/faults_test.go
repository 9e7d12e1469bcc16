package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/units"
)

// Fault-layer differential and behavioural tests. The determinism contract
// extends to faulted runs: the same plan on the reference stepper and on
// the engine at any worker count and shard layout must yield
// byte-identical trajectories, and an *empty* plan must leave a run
// byte-identical to no plan at all.

// compareRecovery extends compareFingerprints with the fault-layer scalars
// (which the base comparator predates).
func compareRecovery(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Repairs != got.Repairs || want.Recoveries != got.Recoveries || want.RecoverySlots != got.RecoverySlots {
		t.Errorf("%s: recovery accounting differs: (%d repairs, %d recoveries, %d slots) vs (%d, %d, %d)",
			label, want.Repairs, want.Recoveries, want.RecoverySlots,
			got.Repairs, got.Recoveries, got.RecoverySlots)
	}
}

// activePlan exercises every fault kind: two crashes, a recovery, a
// mid-run join of an initially-dead device, a clock jump, a burst outage
// and a background loss rate.
func activePlan(n int) *faults.Plan {
	return &faults.Plan{
		Version:  faults.PlanSchema,
		LossRate: 0.05,
		Actions: []faults.Action{
			{Kind: faults.KindJoin, At: 9000, Device: n - 1},
			{Kind: faults.KindCrash, At: 2500, Device: 3},
			{Kind: faults.KindCrash, At: 2500, Device: 7},
			{Kind: faults.KindRecover, At: 7000, Device: 3},
			{Kind: faults.KindClockJump, At: 4000, Device: 11, Delta: 0.25},
		},
		Outages: []faults.Outage{
			{At: 1500, Slots: 400, A: 5, B: -1},
			{At: 5000, Slots: 200, A: 1, B: 2},
		},
	}
}

func TestFaultRunsBitIdentical(t *testing.T) {
	protos := []Protocol{ST{}, FST{}}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			base := fastConfig(40, 9)
			base.Faults = activePlan(base.N)

			seq, seqPhases := fingerprintCfg(t, proto, withOracle(base))
			for _, l := range layouts[1:] {
				par, parPhases := fingerprintCfg(t, proto, l.apply(base))
				label := fmt.Sprintf("%s %s", proto.Name(), l.name)
				compareFingerprints(t, label, seq, par)
				compareRecovery(t, label, seq.res, par.res)
				comparePhases(t, label, seqPhases, parPhases)
			}

			// The plan actually bit: the crashed-and-never-recovered
			// device must be down, the joiner up, and the layer must have
			// healed at least once.
			if seq.res.Repairs == 0 {
				t.Error("active plan completed no repair round")
			}
			if seq.res.Recoveries == 0 || seq.res.RecoverySlots == 0 {
				t.Errorf("active plan recorded no recovery episode: %d/%d",
					seq.res.Recoveries, seq.res.RecoverySlots)
			}
		})
	}
}

// An empty-but-enabled plan must not perturb a run: the watchdog, the
// per-delivery filter gate and the extended exit conditions all have to be
// provably inert, so enabling the layer is free until a plan actually
// schedules something.
func TestEmptyFaultPlanBitIdenticalToNone(t *testing.T) {
	for _, proto := range []Protocol{ST{}, FST{}} {
		for _, l := range layouts[:2] {
			off, offPhases := fingerprintCfg(t, proto, l.apply(fastConfig(40, 9)))

			cfg := fastConfig(40, 9)
			cfg.Faults = &faults.Plan{Version: faults.PlanSchema}
			on, onPhases := fingerprintCfg(t, proto, l.apply(cfg))

			label := fmt.Sprintf("%s %s empty-plan", proto.Name(), l.name)
			compareFingerprints(t, label, off, on)
			compareRecovery(t, label, off.res, on.res)
			comparePhases(t, label, offPhases, onPhases)
			if on.res.Repairs != 0 || on.res.Recoveries != 0 {
				t.Errorf("%s: empty plan healed something: %+v", label, on.res)
			}
		}
	}
}

// Watchdog false-positive property: across seeds, a fault-free run with
// the layer enabled must never presume a live device dead — a live
// oscillator fires at most two periods apart, under the default
// three-period patience. A presumption would surface as a repair round.
func TestWatchdogNoFalsePositives(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, proto := range []Protocol{ST{}, FST{}} {
			cfg := fastConfig(30, seed)
			cfg.Faults = &faults.Plan{Version: faults.PlanSchema}
			env := mustEnv(t, cfg)
			res := proto.Run(env)
			if !res.Converged {
				t.Errorf("%s seed %d: fault-free run did not converge", proto.Name(), seed)
			}
			if res.Repairs != 0 || res.Recoveries != 0 || res.RecoverySlots != 0 {
				t.Errorf("%s seed %d: watchdog false positive: %d repairs, %d recoveries",
					proto.Name(), seed, res.Repairs, res.Recoveries)
			}
		}
	}
}

// Acceptance scenario: a crash plan killing 20%% of a converged n=200 ST
// network. The survivors must re-converge (the run reports a recovery
// episode and at least one completed repair round), identically on the
// engine and the reference stepper.
func TestSTCrashRecoveryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("n=200 recovery scenario")
	}
	const n = 200
	probe := fastConfig(n, 12345)
	probeRes := ST{}.Run(mustEnv(t, probe))
	if !probeRes.Converged {
		t.Fatalf("probe run did not converge: %v", probeRes)
	}

	crashAt := int64(probeRes.ConvergenceSlots) + 2*int64(probe.PeriodSlots)
	plan := &faults.Plan{Version: faults.PlanSchema}
	for d := n - n/5; d < n; d++ { // the top 40 ids: 20%
		plan.Actions = append(plan.Actions, faults.Action{Kind: faults.KindCrash, At: crashAt, Device: d})
	}

	cfg := fastConfig(n, 12345)
	cfg.Faults = plan
	slot, slotPhases := fingerprintCfg(t, ST{}, withOracle(cfg))
	event, eventPhases := fingerprintCfg(t, ST{}, cfg)
	compareFingerprints(t, "crash-recovery", slot, event)
	compareRecovery(t, "crash-recovery", slot.res, event.res)
	comparePhases(t, "crash-recovery", slotPhases, eventPhases)

	res := slot.res
	if !res.Converged || res.ConvergenceSlots != probeRes.ConvergenceSlots {
		t.Errorf("pre-crash convergence diverged from probe: %v vs %v", res.ConvergenceSlots, probeRes.ConvergenceSlots)
	}
	if res.Repairs < 1 {
		t.Errorf("no repair round completed after the crash wave: %+v", res)
	}
	if res.Recoveries < 1 || res.RecoverySlots < 1 {
		t.Errorf("survivors did not re-converge: %d recoveries over %d slots", res.Recoveries, res.RecoverySlots)
	}
	// Recovery happened after the crash, within the slot budget.
	if got := res.RecoverySlots; got > probe.MaxSlots-units.Slot(crashAt) {
		t.Errorf("recovery time %d exceeds the post-crash budget", got)
	}
}

// A live set of one device is synchronized as soon as its own fires form
// StableRounds rounds: a one-device network converges, and a crash wave
// that leaves one survivor closes its recovery episode, on both protocols.
func TestSingleLiveDeviceConverges(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		res := proto.Run(mustEnv(t, fastConfig(1, 1)))
		if !res.Converged || res.ConvergenceSlots >= 10*units.Slot(PaperConfig(1, 1).PeriodSlots) {
			t.Errorf("%s n=1: converged=%v at %d slots, want convergence within ten periods",
				proto.Name(), res.Converged, res.ConvergenceSlots)
		}

		const n = 5
		cfg := fastConfig(n, 1)
		cfg.Faults = &faults.Plan{Version: faults.PlanSchema}
		for d := 1; d < n; d++ {
			cfg.Faults.Actions = append(cfg.Faults.Actions, faults.Action{Kind: faults.KindCrash, At: 3000, Device: d})
		}
		res = proto.Run(mustEnv(t, cfg))
		if !res.Converged || res.Recoveries < 1 || res.TotalSlots >= uint64(cfg.MaxSlots) {
			t.Errorf("%s n=%d, one survivor: converged=%v, %d recoveries, ran %d of %d slots",
				proto.Name(), n, res.Converged, res.Recoveries, res.TotalSlots, cfg.MaxSlots)
		}
	}
}

// A device that powers on mid-run (a join action on an initially-dead
// device) must be discovered, re-attached by a repair round and end the
// run in phase with the rest of the network.
func TestJoinedDeviceReattaches(t *testing.T) {
	const n = 30
	const joiner = n - 1
	cfg := fastConfig(n, 4)
	cfg.Faults = &faults.Plan{
		Version: faults.PlanSchema,
		Actions: []faults.Action{{Kind: faults.KindJoin, At: 3000, Device: joiner}},
	}
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !env.Alive[joiner] {
		t.Fatal("joiner is not alive at end of run")
	}
	if res.Repairs < 1 {
		t.Errorf("join did not trigger a repair round: %+v", res)
	}
	if res.Recoveries < 1 {
		t.Errorf("no recovery episode closed after the join: %+v", res)
	}
	// The joiner holds the network phase.
	ref := -1.0
	for i, d := range env.Devices {
		if !env.Alive[i] || i == joiner {
			continue
		}
		ref = d.Osc.Phase
		break
	}
	if got := env.Devices[joiner].Osc.Phase; got != ref {
		t.Errorf("joiner phase %v, network phase %v", got, ref)
	}
}

// The faults-off hot path must stay on the measured steady state: stepSlot
// with an empty plan attached (layer enabled, nothing scheduled, no
// loss/outages) must not allocate beyond the 1 alloc/op the loop pays.
func TestStepSlotEmptyFaultPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	cfg := PaperConfig(200, 7)
	cfg.Faults = &faults.Plan{Version: faults.PlanSchema}
	eng, step := steadyEngine(t, cfg, 6)
	defer eng.close()
	if eng.fltFilters {
		t.Fatal("empty plan should not enable delivery filtering")
	}
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("stepSlot with empty fault plan: %.2f allocs/op, want <= 1", avg)
	}
}

// BenchmarkStepSlotFaults measures the fault layer's hot-path overhead
// against the plain loop: nil plan, empty plan (boundary checks only) and
// an active loss rate (per-delivery draws). `make bench` records it.
func BenchmarkStepSlotFaults(b *testing.B) {
	cases := []struct {
		name string
		plan *faults.Plan
	}{
		{"no-plan", nil},
		{"empty-plan", &faults.Plan{Version: faults.PlanSchema}},
		{"loss=0.05", &faults.Plan{Version: faults.PlanSchema, LossRate: 0.05}},
	}
	var slots []slotCase
	for _, tc := range cases {
		cfg := PaperConfig(200, 7)
		cfg.Faults = tc.plan
		slots = append(slots, slotCase{fmt.Sprintf("%s/n=200", tc.name), cfg})
	}
	benchSlots(b, slots...)
}
