package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/units"
)

// Churn tests: synchrony must survive devices powering off after the
// topology phase — identical clocks make the synchronized state absorbing,
// and the survivors' coupling keeps it locked. Devices go down through
// fault-plan crash actions, the simulator's one way to lose devices.

// crashAt builds a fault plan crashing the given devices together at slot.
func crashAt(slot int64, devices ...int) *faults.Plan {
	p := &faults.Plan{Version: faults.PlanSchema}
	for _, d := range devices {
		p.Actions = append(p.Actions, faults.Action{Kind: faults.KindCrash, At: slot, Device: d})
	}
	return p
}

// survivorsConverged runs proto under cfg and checks that the run converged
// after at least one repair round, that want devices are left alive, and
// that every survivor ends on one shared phase.
func survivorsConverged(t *testing.T, proto Protocol, cfg Config, want int) {
	t.Helper()
	env := mustEnv(t, cfg)
	res := proto.Run(env)
	if !res.Converged {
		t.Fatalf("%s with churn did not converge: %v", proto.Name(), res)
	}
	if res.Repairs < 1 {
		t.Errorf("%s: no repair round after the crash: %v", proto.Name(), res)
	}
	if got := env.AliveCount(); got != want {
		t.Errorf("alive = %d, want %d", got, want)
	}
	var ref float64
	first := true
	for i, d := range env.Devices {
		if !env.Alive[i] {
			continue
		}
		if first {
			ref, first = d.Osc.Phase, false
			continue
		}
		if d.Osc.Phase != ref {
			t.Fatalf("survivor %d phase %v != %v", i, d.Osc.Phase, ref)
		}
	}
}

func TestSTSurvivesChurn(t *testing.T) {
	cfg := fastConfig(40, 1)
	// After discovery (200) + a few merge phases.
	cfg.Faults = crashAt(600, 35, 36, 37, 38, 39)
	survivorsConverged(t, ST{}, cfg, 35)
}

func TestFSTSurvivesChurn(t *testing.T) {
	cfg := fastConfig(40, 2)
	// n=40: joins finish near slot 200+39*8 ≈ 512; convergence needs ~3
	// more periods, so 600 lands between setup and convergence. Device 0
	// is the tree root: the pruned tree must regrow from a new one.
	cfg.Faults = crashAt(600, 0, 1)
	survivorsConverged(t, FST{}, cfg, 38)
}

func TestNoChurnByDefault(t *testing.T) {
	env := mustEnv(t, fastConfig(10, 5))
	ST{}.Run(env)
	if env.AliveCount() != 10 {
		t.Error("default run should not kill devices")
	}
}

// Engine invariants under churn: the properties below must hold for every
// slot of a run in which devices toggle on and off arbitrarily between
// slots, on both the sequential and the sharded engine.
//
//   - the refractory window bounds every device to at most one fire per
//     slot (which is also what terminates the absorption cascade);
//   - powered-off devices never observe a PS (their discovery tables are
//     frozen while they are down) and never fire;
//   - the cascade terminates with at most one fire per alive device.

// observationCount fingerprints how much device i has ever observed.
func observationCount(env *Env, i int) int {
	total := 0
	for _, e := range env.nbr.idx.ByID(i) {
		total += int(env.nbr.count[e])
	}
	return total
}

// setAlive powers device i off or on between slots, through the engine hooks
// the fault layer uses: a powered-off device freezes its phase at the last
// stepped slot and leaves the fire schedule; a powered-on one resumes from
// that frozen phase.
func setAlive(env *Env, eng *engine, i int, alive bool, last units.Slot) {
	if env.Alive[i] == alive {
		return
	}
	if alive {
		env.Alive[i] = true
		env.Devices[i].Osc.Rebase(int64(last))
		eng.rescheduleDevice(i)
		return
	}
	eng.materialize(i, last)
	env.Alive[i] = false
	eng.deschedule(i)
}

func churnInvariantRun(t *testing.T, workers, shards int) {
	t.Helper()
	const n = 60
	cfg := PaperConfig(n, 21)
	cfg.MaxSlots = 60000
	cfg.Workers = workers
	cfg.shards = shards
	env := mustEnv(t, cfg)
	eng := newEngine(env)
	defer eng.close()

	// Mesh coupling maximizes cascade pressure: every decoded pulse may
	// trigger an absorption fire.
	couples := func(sender, receiver int) bool { return true }

	var ops uint64
	seen := make(map[int]bool, n)
	deadObs := make([]int, n)
	for slot := units.Slot(1); slot <= 1200; slot++ {
		// Toggle a rotating block of devices every 40 slots: block k
		// powers off for one toggle period, then back on.
		if slot%40 == 0 {
			block := (int(slot) / 40) % (n / 10)
			for i := 0; i < n; i++ {
				setAlive(env, eng, i, i/10 != block, slot-1)
			}
			for i := block * 10; i < (block+1)*10; i++ {
				deadObs[i] = observationCount(env, i)
			}
		}

		fired := eng.stepSlot(slot, couples, 1, &ops)

		// Cascade terminated with at most one fire per alive device.
		if len(fired) > env.AliveCount() {
			t.Fatalf("slot %d: %d fires exceed %d alive devices", slot, len(fired), env.AliveCount())
		}
		for k := range seen {
			delete(seen, k)
		}
		for _, f := range fired {
			if seen[f] {
				t.Fatalf("slot %d: device %d fired twice in one slot (refractory violated)", slot, f)
			}
			seen[f] = true
			if !env.Alive[f] {
				t.Fatalf("slot %d: powered-off device %d fired", slot, f)
			}
		}
		// Powered-off devices observed nothing this slot.
		for i := 0; i < n; i++ {
			if env.Alive[i] {
				continue
			}
			if got := observationCount(env, i); got != deadObs[i] {
				t.Fatalf("slot %d: powered-off device %d observed %d PSs while down",
					slot, i, got-deadObs[i])
			}
		}
	}
	if ops == 0 {
		t.Fatal("run delivered no pulses; the invariants were never exercised")
	}
}

func TestEngineInvariantsUnderChurnSequential(t *testing.T) { churnInvariantRun(t, 1, 0) }

func TestEngineInvariantsUnderChurnParallel(t *testing.T) { churnInvariantRun(t, 4, 4) }

// Churn must not break worker-count invariance either: the same toggling
// schedule on 1 and 4 workers yields identical trajectories.
func TestChurnRunsAreWorkerCountInvariant(t *testing.T) {
	run := func(workers int) (uint64, []int) {
		cfg := PaperConfig(40, 22)
		cfg.MaxSlots = 60000
		cfg.Workers = workers
		cfg.shards = workers
		env := mustEnv(t, cfg)
		eng := newEngine(env)
		defer eng.close()
		couples := func(sender, receiver int) bool { return true }
		var ops uint64
		var allFired []int
		for slot := units.Slot(1); slot <= 800; slot++ {
			if slot%30 == 0 {
				victim := (int(slot) / 30) % 40
				setAlive(env, eng, victim, !env.Alive[victim], slot-1)
			}
			allFired = append(allFired, eng.stepSlot(slot, couples, 1, &ops)...)
		}
		return ops, allFired
	}
	seqOps, seqFired := run(1)
	parOps, parFired := run(4)
	if seqOps != parOps {
		t.Errorf("ops diverge under churn: seq %d vs par %d", seqOps, parOps)
	}
	if len(seqFired) != len(parFired) {
		t.Fatalf("fired counts diverge under churn: seq %d vs par %d", len(seqFired), len(parFired))
	}
	for i := range seqFired {
		if seqFired[i] != parFired[i] {
			t.Fatalf("fired sequence diverges at %d: seq %d vs par %d", i, seqFired[i], parFired[i])
		}
	}
}
