package core

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// Differential pin for the observability layer: attaching a telemetry run
// and a structured-event sink must not change the simulation by one bit.
// The hooks only read settled state — no RNG draw, no reordering — so the
// fingerprint (Result scalars, fired sequence, final phases) is identical
// with instrumentation on or off — both on the reference stepper, which
// steps every slot ("slot"), and on the engine, which steps only the slots
// where something happens ("event").
func TestTelemetryRunsBitIdentical(t *testing.T) {
	protocols := []Protocol{FST{}, ST{}, Centralized{}}
	engines := []struct {
		name string
		l    layout
	}{{"slot", layouts[0]}, {"event", layout{}}}
	for _, proto := range protocols {
		for _, engine := range engines {
			t.Run(fmt.Sprintf("%s/%s", proto.Name(), engine.name), func(t *testing.T) {
				cfg := PaperConfig(50, 3)
				cfg.MaxSlots = 4000
				cfg = engine.l.apply(cfg)
				base, basePhases := fingerprintCfg(t, proto, cfg)

				cfg.Telemetry = telemetry.NewRun(units.Slot(cfg.PeriodSlots), 0)
				var events []trace.Event
				cfg.EventTrace = func(ev trace.Event) { events = append(events, ev) }
				instr, instrPhases := fingerprintCfg(t, proto, cfg)

				label := fmt.Sprintf("%s/%s/telemetry", proto.Name(), engine.name)
				compareFingerprints(t, label, base, instr)
				comparePhases(t, label, basePhases, instrPhases)

				// The probe series must actually exist and be sane.
				samples := cfg.Telemetry.Samples()
				if len(samples) == 0 {
					t.Fatal("instrumented run recorded no samples")
				}
				every := units.Slot(cfg.PeriodSlots)
				for i, s := range samples {
					if s.Slot%every != 0 {
						t.Errorf("sample %d at slot %d, not a boundary of %d", i, s.Slot, every)
					}
					if s.OrderParam < 0 || s.OrderParam > 1 {
						t.Errorf("sample %d order parameter %v out of [0,1]", i, s.OrderParam)
					}
					if s.PhaseSpread < 0 || s.PhaseSpread > 1 {
						t.Errorf("sample %d phase spread %v out of [0,1]", i, s.PhaseSpread)
					}
					if i > 0 && s.Slot <= samples[i-1].Slot {
						t.Errorf("sample slots not increasing: %d then %d", samples[i-1].Slot, s.Slot)
					}
				}
				if cfg.Telemetry.SlotsStepped() == 0 {
					t.Error("stepped-slot counter never moved")
				}

				// The structured event stream must mark convergence.
				if instr.res.Converged {
					var sawConverge bool
					for _, ev := range events {
						if ev.Kind == trace.KindConverge {
							sawConverge = true
							if ev.Slot != instr.res.ConvergenceSlots {
								t.Errorf("converge event at slot %d, result says %d", ev.Slot, instr.res.ConvergenceSlots)
							}
						}
					}
					if !sawConverge {
						t.Error("converged run emitted no converge event")
					}
				}
			})
		}
	}
}

// The synchrony probes must show the run actually synchronizing: late
// samples of a converged run sit near order parameter 1 and near-zero
// phase spread, and above the early-run disorder.
func TestTelemetrySeriesShowsSynchrony(t *testing.T) {
	cfg := PaperConfig(40, 12345)
	cfg.Telemetry = telemetry.NewRun(units.Slot(cfg.PeriodSlots), 0)
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatal("reference config must converge")
	}
	samples := cfg.Telemetry.Samples()
	if len(samples) < 2 {
		t.Fatalf("need at least 2 samples, got %d", len(samples))
	}
	last := samples[len(samples)-1]
	if last.OrderParam < 0.9 {
		t.Errorf("final order parameter %v, want near 1 for a converged run", last.OrderParam)
	}
	if last.Fragments != 1 {
		t.Errorf("final fragment count %d, want 1", last.Fragments)
	}
	if last.Links < 1 || last.Links > res.DiscoveredLinks {
		// The last boundary precedes the end of the run, so the sampled
		// cumulative link count can trail the final tally — never exceed it.
		t.Errorf("final links sample %d, result says %d", last.Links, res.DiscoveredLinks)
	}
	if last.RachTx == 0 {
		t.Error("cumulative RACH Tx never moved")
	}
	first := samples[0]
	if first.Fragments != cfg.N {
		t.Errorf("first fragment count %d, want %d (pure discovery)", first.Fragments, cfg.N)
	}
}

// The disabled path must stay on the measured steady state: stepSlot with
// telemetry compiled in but nil must not allocate beyond the 1 alloc/op the
// hot loop already pays.
func TestStepSlotDisabledTelemetryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	// Six periods of warm-up: buffer growth runs into the fourth period's
	// fire cascade (fires sit mid-period, not at the boundary).
	eng, step := steadyEngine(t, PaperConfig(200, 7), 6)
	defer eng.close()
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("stepSlot with telemetry disabled: %.2f allocs/op, want <= 1", avg)
	}
}

// BenchmarkStepSlotTelemetry measures the enabled-path overhead: the same
// steady-state slot loop as BenchmarkStepSlot, with a telemetry run sampling
// every period; `make bench` records it next to the disabled baseline.
func BenchmarkStepSlotTelemetry(b *testing.B) {
	var cases []slotCase
	for _, every := range []int{0, 100} {
		name := "counters-only"
		if every > 0 {
			name = fmt.Sprintf("sample-every=%d", every)
		}
		cfg := PaperConfig(200, 7)
		cfg.Telemetry = telemetry.NewRun(units.Slot(every), 0)
		cases = append(cases, slotCase{fmt.Sprintf("%s/n=200", name), cfg})
	}
	benchSlots(b, cases...)
}
