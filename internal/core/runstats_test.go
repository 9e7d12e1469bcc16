package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Differential pin for engine self-measurement: attaching a RunStats
// accumulator must not change a single bit of any run. The instrumentation
// only reads the monotonic clock — it never touches the RNG streams, the
// wave ordering or the engine's horizon — and this suite is the proof,
// across the reference stepper, the engine at its default layout, forced
// shard counts and worker counts (one per CPU included), and a mid-run
// crash wave.

// runstatsCrashPlan crashes a fifth of the devices mid-run so the faulted
// delivery filter and the engines' churn paths run under instrumentation.
func runstatsCrashPlan(n int) *faults.Plan {
	p := &faults.Plan{Version: faults.PlanSchema}
	for d := n - n/5; d < n; d++ {
		p.Actions = append(p.Actions, faults.Action{Kind: faults.KindCrash, At: 300, Device: d})
	}
	return p
}

func TestRunStatsBitIdentical(t *testing.T) {
	// seq is the reference stepper, event the engine's default layout
	// (next-event stepping on the derived shard count) and auto one worker
	// per CPU.
	cases := []struct {
		name string
		l    layout
	}{
		{"seq", layouts[0]},
		{"shard1", layout{workers: 1, shards: 4}},
		{"shard4", layout{workers: 4, shards: 4}},
		{"event", layout{}},
		{"auto", layout{workers: -1}},
	}
	for _, c := range cases {
		for _, faulted := range []bool{false, true} {
			label := fmt.Sprintf("%s/faulted=%v", c.name, faulted)
			t.Run(label, func(t *testing.T) {
				build := func() Config {
					cfg := PaperConfig(100, 3)
					cfg.MaxSlots = 1200
					if faulted {
						cfg.Faults = runstatsCrashPlan(cfg.N)
					}
					return c.l.apply(cfg)
				}
				for _, proto := range []Protocol{FST{}, ST{}} {
					off := build()
					want, wantPhases := fingerprintCfg(t, proto, off)

					on := build()
					rs := telemetry.NewRunStats()
					on.RunStats = rs
					got, gotPhases := fingerprintCfg(t, proto, on)

					pl := fmt.Sprintf("%s/%s", label, proto.Name())
					compareFingerprints(t, pl, want, got)
					comparePhases(t, pl, wantPhases, gotPhases)

					// The accumulator must actually have measured the run it
					// rode along on — a silently detached probe would make
					// the identity above vacuous.
					rep := rs.Report()
					if rep == nil || rep.MeasuredNanos <= 0 {
						t.Fatalf("%s: runstats measured nothing", pl)
					}
					if rep.SteppedSlots != got.res.ActiveSlots ||
						rep.SteppedSlots+rep.SkippedSlots != got.res.TotalSlots {
						t.Errorf("%s: runstats counted %d stepped + %d skipped slots, result %d of %d",
							pl, rep.SteppedSlots, rep.SkippedSlots, got.res.ActiveSlots, got.res.TotalSlots)
					}
					if !c.l.oracle && (rep.Shard == nil || rep.SkipSpan == nil) {
						t.Errorf("%s: engine left no shard or skip-span stats", pl)
					}
				}
			})
		}
	}
}

// The disabled path must stay on the measured steady state: stepSlot with
// runstats compiled in but nil must not allocate beyond the 1 alloc/op the
// hot loop already pays (same contract as the nil-telemetry guard).
func TestStepSlotDisabledRunStatsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	cfg := PaperConfig(200, 7)
	env := mustEnv(t, cfg)
	eng := newEngine(env)
	defer eng.close()
	if eng.rs != nil {
		t.Fatal("engine picked up a RunStats no config attached")
	}
	couples := func(sender, receiver int) bool { return true }
	var ops uint64
	// Saturate discovery tables and reused buffers past the fourth period's
	// fire cascade; the guard measures the steady state.
	warm := 6 * cfg.PeriodSlots
	for s := 1; s <= warm; s++ {
		eng.stepSlot(units.Slot(s), couples, 1, &ops)
	}
	slot := units.Slot(warm)
	avg := testing.AllocsPerRun(200, func() {
		slot++
		eng.stepSlot(slot, couples, 1, &ops)
	})
	if avg > 1 {
		t.Errorf("stepSlot with runstats disabled: %.2f allocs/op, want <= 1", avg)
	}
}

// BenchmarkStepSlotRunStats measures the runstats probe overhead on the
// steady-state slot loop: off is the nil-accumulator baseline, on pays the
// clock reads. `make bench-runstats` gates on within 5% of off.
func BenchmarkStepSlotRunStats(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		for _, n := range []int{200, 5000} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				cfg := PaperConfig(n, 7)
				if mode == "on" {
					cfg.RunStats = telemetry.NewRunStats()
				}
				env, err := NewEnv(cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng := newEngine(env)
				defer eng.close()
				couples := func(sender, receiver int) bool { return true }
				var ops uint64
				warm := 3 * cfg.PeriodSlots
				for s := 1; s <= warm; s++ {
					eng.stepSlot(units.Slot(s), couples, 1, &ops)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.stepSlot(units.Slot(warm+i+1), couples, 1, &ops)
				}
			})
		}
	}
}
