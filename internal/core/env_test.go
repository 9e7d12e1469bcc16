package core

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/trace"
	"repro/internal/units"
)

func TestNewEnvAt(t *testing.T) {
	cfg := fastConfig(3, 1)
	positions := []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	env, err := NewEnvAt(cfg, positions)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range env.Devices {
		if d.Pos != positions[i] {
			t.Fatalf("device %d at %v, want %v", i, d.Pos, positions[i])
		}
	}
	if _, err := NewEnvAt(cfg, positions[:2]); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestPreamblesConfigWiring(t *testing.T) {
	cfg := fastConfig(20, 1)
	cfg.Preambles = 64
	env := mustEnv(t, cfg)
	if env.Transport.Preambles != 64 || env.Transport.PreambleSrc == nil {
		t.Error("preamble pool not wired into the transport")
	}
	res := ST{}.Run(env)
	if !res.Converged {
		t.Error("64-preamble run should converge")
	}
}

func TestSINRDetectionConfigWiring(t *testing.T) {
	cfg := fastConfig(20, 2)
	cfg.SINRDetection = true
	env := mustEnv(t, cfg)
	if !env.Transport.SINRMode {
		t.Fatal("SINR mode not wired")
	}
	// The required SINR must reproduce the Table I threshold without
	// interference: noise + required = threshold.
	got := float64(env.Transport.NoiseFloor) + env.Transport.RequiredSNRDB
	if got != float64(cfg.Threshold) {
		t.Errorf("effective threshold %v, want %v", got, cfg.Threshold)
	}
	res := ST{}.Run(env)
	if !res.Converged {
		t.Error("SINR-mode run should converge")
	}
}

func TestClockDriftConfigWiring(t *testing.T) {
	cfg := fastConfig(30, 3)
	cfg.ClockDriftPPM = 100
	env := mustEnv(t, cfg)
	allNominal := true
	for _, d := range env.Devices {
		if d.Osc.Rate != 0 && d.Osc.Rate != 1 {
			allNominal = false
		}
		// ±3σ clamp at 100 ppm: rate within [0.9997, 1.0003].
		if d.Osc.Rate < 0.9997 || d.Osc.Rate > 1.0003 {
			t.Fatalf("rate %v outside the 3-sigma clamp", d.Osc.Rate)
		}
	}
	if allNominal {
		t.Error("drift configured but every rate is nominal")
	}
}

func TestFireTraceHook(t *testing.T) {
	cfg := fastConfig(10, 4)
	fires := 0
	var lastSlot units.Slot
	cfg.EventTrace = func(ev trace.Event) {
		if ev.Kind != trace.KindFire {
			return
		}
		fires++
		if ev.Slot < lastSlot {
			t.Fatal("fire trace slots went backwards")
		}
		lastSlot = ev.Slot
		if ev.A < 0 || ev.A >= 10 || ev.B != -1 {
			t.Fatalf("bad fire event %+v", ev)
		}
	}
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	// Every device fires roughly once per period for the whole run.
	if fires < 10*int(res.ConvergenceSlots)/cfg.PeriodSlots/2 {
		t.Errorf("only %d fires traced over %d slots", fires, res.ConvergenceSlots)
	}
}

func TestProgressTraceHook(t *testing.T) {
	cfg := fastConfig(10, 7)
	cfg.ProgressEvery = 100
	var slots []units.Slot
	cfg.ProgressTrace = func(slot units.Slot) { slots = append(slots, slot) }
	env := mustEnv(t, cfg)
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if len(slots) < 5 {
		t.Fatalf("progress sampled %d times over %d slots", len(slots), res.ConvergenceSlots)
	}
	for i, s := range slots {
		if s%100 != 0 {
			t.Fatalf("sample %d at slot %d, want multiples of 100", i, s)
		}
	}
}

func TestServiceDiscoveryRatioEmptyGraph(t *testing.T) {
	// A deployment with no same-service reachable pairs reports 1
	// (vacuously complete).
	cfg := PaperConfig(2, 5)
	cfg.Area = geo.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	cfg.MaxSlots = 20000
	env := mustEnv(t, cfg)
	if len(env.ReferenceGraph().Edges()) != 0 {
		t.Skip("random pair happened to be in range")
	}
	if got := env.ServiceDiscoveryRatio(); got != 1 {
		t.Errorf("vacuous ratio = %v, want 1", got)
	}
}

func TestEnergyAccountedInResults(t *testing.T) {
	env := mustEnv(t, fastConfig(20, 6))
	res := ST{}.Run(env)
	if res.Energy.TotalMJ <= 0 {
		t.Fatal("no energy charged")
	}
	if res.Energy.TotalMJ != res.Energy.TxMJ+res.Energy.RxMJ+res.Energy.IdleMJ {
		t.Error("energy breakdown does not sum")
	}
	// Idle listening dominates at Table I duty cycles.
	if res.Energy.IdleMJ < res.Energy.TxMJ {
		t.Error("idle energy should dominate transmit energy")
	}
}
