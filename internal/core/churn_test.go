package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/units"
)

// Churn tests: synchrony must survive devices powering off after the
// topology phase — identical clocks make the synchronized state absorbing,
// and the survivors' coupling keeps it locked.

func TestSTSurvivesChurn(t *testing.T) {
	cfg := fastConfig(40, 1)
	cfg.FailAt = 600 // after discovery (200) + a few merge phases
	cfg.FailSet = []int{35, 36, 37, 38, 39}
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatalf("ST with churn did not converge: %v", res)
	}
	if env.AliveCount() != 35 {
		t.Errorf("alive = %d, want 35", env.AliveCount())
	}
	// Survivors share one phase.
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

func TestFSTSurvivesChurn(t *testing.T) {
	cfg := fastConfig(40, 2)
	// n=40: joins finish near slot 200+39*8 ≈ 512; convergence needs ~3
	// more periods, so 600 lands between setup and convergence.
	cfg.FailAt = 600
	cfg.FailSet = []int{0, 1} // even the tree root failing is fine post-setup
	env := mustEnv(t, cfg)
	res := FST{}.Run(env)
	if !res.Converged {
		t.Fatalf("FST with churn did not converge: %v", res)
	}
	if env.AliveCount() != 38 {
		t.Errorf("alive = %d, want 38", env.AliveCount())
	}
}

// FailAt churn must apply under a fault plan too, even after the plan has
// crashed a device before the tree completed: the topology counts as
// complete once it spans the live set, not all n devices.
func TestChurnAppliesUnderFaultPlan(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := fastConfig(40, seed)
			cfg.Faults = &faults.Plan{
				Version: faults.PlanSchema,
				Actions: []faults.Action{{Kind: faults.KindCrash, At: 300, Device: 7}},
			}
			cfg.FailAt = 600
			cfg.FailSet = []int{0, 1}
			env := mustEnv(t, cfg)
			res := proto.Run(env)
			if !res.Converged {
				t.Errorf("%s seed %d: did not converge: %v", proto.Name(), seed, res)
			}
			if got := env.AliveCount(); got != 37 {
				t.Errorf("%s seed %d: alive = %d, want 37 (crash plus churn)", proto.Name(), seed, got)
			}
		}
	}
}

func TestChurnDeferredUntilTopologyDone(t *testing.T) {
	// FailAt earlier than the topology phase completes: injection waits.
	cfg := fastConfig(30, 3)
	cfg.FailAt = 1 // immediately — but the tree needs ~400+ slots
	cfg.FailSet = []int{29}
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatalf("run did not converge: %v", res)
	}
	if env.Alive[29] {
		t.Error("device 29 should have failed")
	}
	// The victim must still have participated in discovery (it was alive
	// during the topology phase).
	if len(env.Devices[29].DiscoveredPeers) == 0 {
		t.Error("victim should have discovered peers before failing")
	}
}

func TestFailSetBoundsChecked(t *testing.T) {
	// Malformed churn config is a validation error, not a silent no-op.
	for name, mutate := range map[string]func(*Config){
		"negative id":    func(c *Config) { c.FailSet = []int{-1, 5} },
		"id past n":      func(c *Config) { c.FailSet = []int{99} },
		"duplicate id":   func(c *Config) { c.FailSet = []int{5, 5} },
		"fail past cap":  func(c *Config) { c.FailAt = c.MaxSlots + 1; c.FailSet = []int{5} },
		"negative retry": func(c *Config) { c.ConnectRetryLimit = -1 },
		"negative watch": func(c *Config) { c.WatchdogPeriods = -1 },
	} {
		cfg := fastConfig(10, 4)
		cfg.FailAt = 500
		mutate(&cfg)
		if _, err := NewEnv(cfg); err == nil {
			t.Errorf("%s: config accepted, want validation error", name)
		}
	}

	// A well-formed FailSet still works end to end.
	cfg := fastConfig(10, 4)
	cfg.FailAt = 500
	cfg.FailSet = []int{5}
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if env.AliveCount() != 9 {
		t.Errorf("alive = %d, want 9", env.AliveCount())
	}
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
	for _, stat := range env.Devices[i].DiscoveredPeers {
		total += stat.Count
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
