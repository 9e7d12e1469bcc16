package core

import (
	"testing"

	"repro/internal/units"
)

func TestCorrelatedChannelConverges(t *testing.T) {
	cfg := fastConfig(30, 1)
	cfg.CorrelatedChannel = true
	env := mustEnv(t, cfg)
	if env.Transport.LinkSampler == nil {
		t.Fatal("correlated channel not wired")
	}
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatalf("correlated-channel run did not converge: %v", res)
	}
}

func TestCorrelatedChannelDeterministic(t *testing.T) {
	cfg := fastConfig(20, 2)
	cfg.CorrelatedChannel = true
	a := ST{}.Run(mustEnv(t, cfg))
	b := ST{}.Run(mustEnv(t, cfg))
	if a.ConvergenceSlots != b.ConvergenceSlots || a.Counters != b.Counters {
		t.Error("correlated-channel runs are not reproducible")
	}
}

func TestCorrelatedChannelBlockStructure(t *testing.T) {
	// Within one coherence block the link sample is constant (static
	// shadowing + held fading); across blocks it moves.
	cfg := fastConfig(5, 3)
	cfg.CorrelatedChannel = true
	env := mustEnv(t, cfg)
	s := env.Transport.LinkSampler
	d := units.Metre(30)
	v0 := s(0, 1, d, 0)
	for slot := units.Slot(1); slot < coherenceSlots; slot++ {
		if s(0, 1, d, slot) != v0 {
			t.Fatalf("sample changed within a coherence block at slot %d", slot)
		}
	}
	if s(0, 1, d, coherenceSlots) == v0 {
		t.Error("sample should change across blocks")
	}
	// Reciprocity.
	if s(0, 1, d, 0) != s(1, 0, d, 0) {
		t.Error("correlated link samples must be reciprocal")
	}
}

func TestCorrelatedChannelFigureShapeHolds(t *testing.T) {
	// The headline claim survives the heavier channel: ST beats FST at a
	// scale where the sequential baseline lags.
	cfg := PaperConfig(200, 4)
	cfg.CorrelatedChannel = true
	cfg.MaxSlots = 100000
	fst := FST{}.Run(mustEnv(t, cfg))
	st := ST{}.Run(mustEnv(t, cfg))
	if !fst.Converged || !st.Converged {
		t.Fatalf("convergence failed under correlated channel: fst=%v st=%v", fst.Converged, st.Converged)
	}
	if st.ConvergenceSlots >= fst.ConvergenceSlots {
		t.Errorf("ST (%d) should still beat FST (%d) at n=200 under the correlated channel",
			st.ConvergenceSlots, fst.ConvergenceSlots)
	}
}
