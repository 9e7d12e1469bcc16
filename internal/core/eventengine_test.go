package core

import (
	"fmt"
	"testing"

	"repro/internal/rach"
	"repro/internal/units"
)

// Differential pin for next-event stepping: for every protocol, size and
// seed the engine must produce results byte-identical to the reference
// stepper (oracle_test.go), which advances every oscillator every slot —
// same fired sequence (slots and device order), same counters, same ops,
// same discovery tables, and the same final oscillator phases. The skipped
// slots are exactly the slots where nothing happens, so identity here is
// the proof that the next-event horizon is exact and that no RNG stream is
// consumed at a different point.

// fingerprintCfg runs proto on cfg with its fires recorded and returns
// the run fingerprint plus the alive devices' final phases.
func fingerprintCfg(t *testing.T, proto Protocol, cfg Config) (runFingerprint, []float64) {
	t.Helper()
	var fires []fireEvent
	recordFires(&cfg, &fires)
	env := mustEnv(t, cfg)
	res := proto.Run(env)
	phases := make([]float64, len(env.Devices))
	for i, d := range env.Devices {
		if env.Alive[i] {
			phases[i] = d.Osc.Phase
		}
	}
	return runFingerprint{res: res, fires: fires, tables: env.nbr}, phases
}

func comparePhases(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: phase vector length differs: %d vs %d", label, len(want), len(got))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: final phase of device %d differs: reference %v vs engine %v",
				label, i, want[i], got[i])
			return
		}
	}
}

// eventDiff runs proto on cfg on the reference stepper and on the engine,
// compares them, and returns the engine's result.
func eventDiff(t *testing.T, proto Protocol, cfg Config, label string) Result {
	t.Helper()
	ref, refPhases := fingerprintCfg(t, proto, withOracle(cfg))
	got, gotPhases := fingerprintCfg(t, proto, cfg)
	compareFingerprints(t, label, ref, got)
	comparePhases(t, label, refPhases, gotPhases)
	// The reference steps every slot of the span — except the Centralized
	// protocol, whose uplink-collection phase advances absolute time
	// without stepping oscillator slots.
	if s := ref.res; s.Protocol != "BS" && s.ActiveSlots != s.TotalSlots {
		t.Errorf("%s: reference skipped slots: active %d of %d", label, s.ActiveSlots, s.TotalSlots)
	}
	if e := got.res; e.ActiveSlots > e.TotalSlots || e.TotalSlots != ref.res.TotalSlots {
		t.Errorf("%s: engine stepped %d slots of %d (reference span %d)",
			label, e.ActiveSlots, e.TotalSlots, ref.res.TotalSlots)
	}
	return got.res
}

// checkActive pins the engine's stepped-slot count: the horizon is exact,
// so ActiveSlots is a function of the trajectory alone. The expected counts
// are those the fire-queue event engine reported on the same runs.
func checkActive(t *testing.T, label string, res Result, active, total uint64) {
	t.Helper()
	if res.ActiveSlots != active || res.TotalSlots != total {
		t.Errorf("%s: engine stepped %d of %d slots, want %d of %d",
			label, res.ActiveSlots, res.TotalSlots, active, total)
	}
}

func TestEventEngineBitIdenticalToSlot(t *testing.T) {
	cases := []struct {
		n        int
		maxSlots units.Slot
		// Stepped slots of FST, ST and BS at seeds 1, 2 and 3.
		active [3][3]uint64
		total  [3][3]uint64
	}{
		// n=50 runs to convergence; the larger sizes are slot-capped so the
		// table stays affordable (identity holds slot by slot, so a
		// truncated trajectory pins it just as hard). The n=800 Centralized
		// case also exercises the uplink-budget early return.
		{n: 50, maxSlots: 2000,
			active: [3][3]uint64{{183, 107, 74}, {210, 124, 82}, {193, 119, 75}},
			total:  [3][3]uint64{{850, 1092, 881}, {863, 1094, 892}, {824, 1024, 890}}},
		{n: 200, maxSlots: 1000,
			active: [3][3]uint64{{789, 281, 172}, {802, 286, 176}, {795, 300, 174}},
			total:  [3][3]uint64{{1000, 1000, 1000}, {1000, 1000, 1000}, {1000, 1000, 1000}}},
		{n: 800, maxSlots: 400,
			active: [3][3]uint64{{400, 376, 200}, {400, 386, 200}, {400, 376, 200}},
			total:  [3][3]uint64{{400, 400, 400}, {400, 400, 400}, {400, 400, 400}}},
	}
	protocols := []Protocol{FST{}, ST{}, Centralized{}}

	for _, c := range cases {
		for si, seed := range []int64{1, 2, 3} {
			for pi, proto := range protocols {
				cfg := PaperConfig(c.n, seed)
				cfg.MaxSlots = c.maxSlots
				label := fmt.Sprintf("%s/n=%d/seed=%d", proto.Name(), c.n, seed)
				res := eventDiff(t, proto, cfg, label)
				checkActive(t, label, res, c.active[si][pi], c.total[si][pi])
			}
		}
	}
}

// The engine must reproduce the golden constants exactly, single-threaded
// and with a worker pool.
func TestEventEngineGoldenResults(t *testing.T) {
	golden := []struct {
		proto Protocol
		slots int64
		tx1   uint64
		tx2   uint64
		ops   uint64
	}{
		{FST{}, 772, 406, 0, 195009},
		{ST{}, 1227, 520, 438, 17808},
		{Centralized{}, 860, 256, 2, 2006},
	}
	for _, g := range golden {
		for _, workers := range []int{0, 2} {
			cfg := PaperConfig(40, 12345)
			cfg.MaxSlots = 100000
			cfg.Workers = workers
			cfg.shards = 4 // n=40 derives one shard; four give Workers=2 a pool
			env := mustEnv(t, cfg)
			res := g.proto.Run(env)
			if !res.Converged {
				t.Errorf("%s: golden run did not converge at workers=%d", g.proto.Name(), workers)
				continue
			}
			if int64(res.ConvergenceSlots) != g.slots ||
				res.Counters.Tx[rach.RACH1] != g.tx1 ||
				res.Counters.Tx[rach.RACH2] != g.tx2 ||
				res.Ops != g.ops {
				t.Errorf("%s workers=%d drifted from golden values:\n got  slots=%d tx1=%d tx2=%d ops=%d\n want slots=%d tx1=%d tx2=%d ops=%d",
					g.proto.Name(), workers,
					res.ConvergenceSlots, res.Counters.Tx[rach.RACH1], res.Counters.Tx[rach.RACH2], res.Ops,
					g.slots, g.tx1, g.tx2, g.ops)
			}
		}
	}
}

// ProgressTrace boundaries are events: the trace must run at exactly the
// same slots as on the reference, and — because callbacks may read phases —
// every oscillator must be materialized when it runs.
func TestEventEngineProgressTraceDifferential(t *testing.T) {
	type sample struct {
		slot units.Slot
		sum  float64
	}
	run := func(oracle bool) ([]sample, Result) {
		cfg := PaperConfig(50, 4)
		cfg.MaxSlots = 2000
		if oracle {
			cfg = withOracle(cfg)
		}
		var samples []sample
		var env *Env
		cfg.ProgressEvery = 250
		cfg.ProgressTrace = func(slot units.Slot) {
			sum := 0.0
			for i, d := range env.Devices {
				if env.Alive[i] {
					sum += d.Osc.Phase
				}
			}
			samples = append(samples, sample{slot: slot, sum: sum})
		}
		env = mustEnv(t, cfg)
		res := ST{}.Run(env)
		return samples, res
	}
	slotSamples, slotRes := run(true)
	eventSamples, eventRes := run(false)
	if len(slotSamples) == 0 {
		t.Fatal("slot run sampled nothing; the trace was never exercised")
	}
	if len(slotSamples) != len(eventSamples) {
		t.Fatalf("sample counts differ: slot %d vs event %d", len(slotSamples), len(eventSamples))
	}
	for i := range slotSamples {
		if slotSamples[i] != eventSamples[i] {
			t.Fatalf("sample %d differs: slot %+v vs event %+v", i, slotSamples[i], eventSamples[i])
		}
	}
	if slotRes.Ops != eventRes.Ops || slotRes.ConvergenceSlots != eventRes.ConvergenceSlots {
		t.Errorf("traced runs diverged: slot (%d, %d) vs event (%d, %d)",
			slotRes.Ops, slotRes.ConvergenceSlots, eventRes.Ops, eventRes.ConvergenceSlots)
	}
}

// The jump budget gates OnPulse, not the ramp, so the next-fire prediction
// stays exact under it; pin that differentially.
func TestEventEngineJumpBudgetDifferential(t *testing.T) {
	want := [][2]uint64{{207, 810}, {119, 1073}}
	for i, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(50, 8)
		cfg.MaxSlots = 2000
		cfg.JumpsPerCycle = 1
		label := fmt.Sprintf("%s/jump-budget", proto.Name())
		res := eventDiff(t, proto, cfg, label)
		checkActive(t, label, res, want[i][0], want[i][1])
	}
}

// The speedup claim rests on sparsity: a converging FST run at the paper's
// density fires in only a fraction of its slots, and the engine must
// actually skip the rest.
func TestEventEngineSkipsInertSlots(t *testing.T) {
	cfg := PaperConfig(50, 7)
	cfg.MaxSlots = 10000
	res := FST{}.Run(mustEnv(t, cfg))
	if res.ActiveSlots == 0 || res.TotalSlots == 0 {
		t.Fatalf("slot accounting missing: active=%d total=%d", res.ActiveSlots, res.TotalSlots)
	}
	checkActive(t, "FST/n=50/seed=7", res, 205, 812)
}

// ActiveSlots must not depend on how the engine is laid out: the horizon is
// the exact earliest fire over all shards, so the worker count, the derived
// shard count and any forced shard count step the very same slots.
func TestActiveSlotsIndependentOfLayout(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(600, 5) // two derived shards
		cfg.PeriodSlots = 400
		cfg.MaxSlots = 4000
		cfg.Faults = runstatsCrashPlan(cfg.N)
		var want Result
		for i, v := range []struct{ workers, shards int }{
			{0, 0}, {1, 0}, {2, 0}, {4, 0}, {0, 1}, {2, 7}, {0, cfg.N},
		} {
			c := cfg
			c.Workers = v.workers
			c.shards = v.shards
			res := proto.Run(mustEnv(t, c))
			label := fmt.Sprintf("%s/workers=%d/shards=%d", proto.Name(), v.workers, v.shards)
			if i == 0 {
				want = res
				if res.ActiveSlots >= res.TotalSlots {
					t.Fatalf("%s: nothing skipped (%d of %d); the case pins no horizon", label, res.ActiveSlots, res.TotalSlots)
				}
				continue
			}
			if res.ActiveSlots != want.ActiveSlots || res.TotalSlots != want.TotalSlots ||
				res.Counters != want.Counters || res.ConvergenceSlots != want.ConvergenceSlots {
				t.Errorf("%s: (active %d, total %d, conv %d) differs from the default layout's (%d, %d, %d)",
					label, res.ActiveSlots, res.TotalSlots, res.ConvergenceSlots,
					want.ActiveSlots, want.TotalSlots, want.ConvergenceSlots)
			}
		}
	}
}
