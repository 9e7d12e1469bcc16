package core

import (
	"fmt"
	"testing"

	"repro/internal/units"
)

// BenchmarkRun measures whole protocol runs — environment setup excluded,
// everything from the first slot to convergence included.
func benchmarkRun(b *testing.B, proto Protocol, n, period int) {
	cfg := PaperConfig(n, 7)
	cfg.PeriodSlots = period
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, err := NewEnv(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := proto.Run(env)
		if !res.Converged {
			b.Fatalf("%s n=%d did not converge", proto.Name(), n)
		}
	}
}

func BenchmarkRunFST(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkRun(b, FST{}, n, 100) })
	}
}

func BenchmarkRunST(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkRun(b, ST{}, n, 100) })
	}
}

// BenchmarkRunSTSparse is the regime next-event stepping exists for: an LTE
// ProSe discovery period (10.24 s ≈ 10240 slots) leaves >99% of slots with
// no fire, no churn and no protocol timer, and the engine skips them all.
// The dense benchmarks above are the honest counterweight: at
// PeriodSlots=100 most slots are stepped.
func BenchmarkRunSTSparse(b *testing.B) {
	b.Run("n=200/T=10240", func(b *testing.B) { benchmarkRun(b, ST{}, 200, 10240) })
}

// BenchmarkRunFSTSharded measures whole FST runs on the engine at one
// worker against the reference stepper at sizes where the lazy per-shard
// stepping pays: past convergence the network fires in a single wave, so
// the engine skips the inert slots and all but the due shards instead of
// ramping every device every slot. The win is therefore architectural
// (fewer touched devices), not parallel — it holds on a single-core host.
// Reproduce with `make bench-shard-record`.
func BenchmarkRunFSTSharded(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		for _, mode := range []struct {
			name   string
			oracle bool
		}{
			{"seq", true},
			{"shard", false},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				cfg := PaperConfig(n, 7)
				cfg.PeriodSlots = 100
				cfg.Workers = 1
				if mode.oracle {
					cfg = withOracle(cfg)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					env, err := NewEnv(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res := FST{}.Run(env)
					if !res.Converged {
						b.Fatalf("FST n=%d (%s) did not converge", n, mode.name)
					}
				}
			})
		}
	}
}

// BenchmarkStepSlot measures one slot of the hot loop — oscillator advance,
// transport resolution, pulse delivery — on the reference stepper (seq) and
// on the engine at one worker (shard), at four workers and at one per CPU.
// Every slot is stepped, as in the dense regime. Mesh coupling keeps every
// decoded pulse on the PRC path, the worst case for the delivery phase.
// Reproduce with `make bench-slot`; EXPERIMENTS.md records reference
// numbers.
func BenchmarkStepSlot(b *testing.B) {
	type mode struct {
		name    string
		oracle  bool
		workers int
	}
	for _, n := range []int{200, 1000, 5000, 20000, 100000} {
		modes := []mode{
			{"seq", true, 1},
			{"shard", false, 1},
			{"par4", false, 4},
			{"parNumCPU", false, -1},
		}
		if n >= 20000 {
			// The large sizes measure the engine against the reference
			// stepper; the worker-count modes only re-measure pool overhead.
			modes = modes[:2]
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				cfg := PaperConfig(n, 7)
				cfg.Workers = mode.workers
				if mode.oracle {
					cfg = withOracle(cfg)
				}
				env, err := NewEnv(cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng := newEngine(env)
				defer eng.close()
				couples := func(sender, receiver int) bool { return true }
				var ops uint64
				// Saturate the discovery tables first: the steady state
				// measures the loop, not the one-time neighbour-map growth
				// of the first few periods.
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
