package core

import (
	"testing"

	"repro/internal/rach"
)

// Golden regression pins: exact results for one fixed configuration
// (n=40, seed 12345). Any change to the protocol dynamics, the channel, or
// the stream derivation moves these numbers — which is the point: such a
// change must be deliberate, and these constants updated in the same
// commit, or every number in EXPERIMENTS.md silently drifts.
func TestGoldenResults(t *testing.T) {
	golden := []struct {
		proto Protocol
		slots int64
		tx1   uint64
		tx2   uint64
		ops   uint64
	}{
		// Measured after the per-sender pulse-stream change (broadcast
		// channel draws moved from the shared shadowing/fading streams to
		// per-device "pulse-i" streams so the engine can evaluate
		// senders concurrently with worker-count-invariant results).
		{FST{}, 772, 406, 0, 195009},
		{ST{}, 1227, 520, 438, 17808},
		{Centralized{}, 860, 256, 2, 2006},
	}
	for _, g := range golden {
		cfg := PaperConfig(40, 12345)
		cfg.MaxSlots = 100000
		env := mustEnv(t, cfg)
		res := g.proto.Run(env)
		if !res.Converged {
			t.Errorf("%s: golden run did not converge", g.proto.Name())
			continue
		}
		if int64(res.ConvergenceSlots) != g.slots ||
			res.Counters.Tx[rach.RACH1] != g.tx1 ||
			res.Counters.Tx[rach.RACH2] != g.tx2 ||
			res.Ops != g.ops {
			t.Errorf("%s drifted from golden values:\n got  slots=%d tx1=%d tx2=%d ops=%d\n want slots=%d tx1=%d tx2=%d ops=%d\n"+
				"(if this change is intentional, update golden_test.go and re-measure EXPERIMENTS.md)",
				g.proto.Name(),
				res.ConvergenceSlots, res.Counters.Tx[rach.RACH1], res.Counters.Tx[rach.RACH2], res.Ops,
				g.slots, g.tx1, g.tx2, g.ops)
		}
	}
}
