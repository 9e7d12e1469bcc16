package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
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
	// Six periods of warm-up: buffer growth runs into the fourth period's
	// fire cascade (fires sit mid-period, not at the boundary).
	eng, step := steadyEngine(t, PaperConfig(200, 7), 6)
	defer eng.close()
	if eng.rs != nil {
		t.Fatal("engine picked up a RunStats no config attached")
	}
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("stepSlot with runstats disabled: %.2f allocs/op, want <= 1", avg)
	}
}

// BenchmarkStepSlotRunStats measures the runstats probe overhead on the
// steady-state slot loop: off is the nil-accumulator baseline, on pays the
// clock reads. `make bench` gates on within 5% of off at n=5000.
func BenchmarkStepSlotRunStats(b *testing.B) {
	for _, n := range []int{200, 5000} {
		on := PaperConfig(n, 7)
		on.RunStats = telemetry.NewRunStats()
		benchSlots(b,
			slotCase{fmt.Sprintf("off/n=%d", n), PaperConfig(n, 7)},
			slotCase{fmt.Sprintf("on/n=%d", n), on})
	}
}
