package core

import (
	"testing"

	"repro/internal/rach"
	"repro/internal/units"
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

// TestFSTFig3GrowthLaw pins Fig. 3's FST series as a law rather than as
// numbers: in the paper's configuration FST's convergence time grows by
// exactly 8 slots per added node, seed by seed, over the sizes `d2dsim -exp
// fig3 -sizes 50,100,200,400 -seeds 2` sweeps (FST means 856.5, 1256.5,
// 2056.5 and 3656.5 slots, the same ±CI at every size). A change to the
// protocol or the channel that bends the curve fails here before it shifts
// EXPERIMENTS.md.
func TestFSTFig3GrowthLaw(t *testing.T) {
	sizes := []int{50, 100, 200, 400}
	for seed := int64(1); seed <= 2; seed++ {
		var prev Result
		for i, n := range sizes {
			res := FST{}.Run(mustEnv(t, PaperConfig(n, seed)))
			if !res.Converged {
				t.Fatalf("seed %d n=%d: FST did not converge", seed, n)
			}
			if i > 0 {
				dn := n - sizes[i-1]
				if got := res.ConvergenceSlots - prev.ConvergenceSlots; got != units.Slot(8*dn) {
					t.Errorf("seed %d: slots(%d) - slots(%d) = %d - %d = %d, want 8*%d = %d",
						seed, n, sizes[i-1], res.ConvergenceSlots, prev.ConvergenceSlots, got, dn, 8*dn)
				}
			}
			prev = res
		}
	}
}
