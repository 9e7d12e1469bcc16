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
	benchmarkRunCfg(b, proto, cfg)
}

func benchmarkRunCfg(b *testing.B, proto Protocol, cfg Config) {
	n := cfg.N
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

// BenchmarkRunFSTCrash is FST under a fault plan: the top 20% of ids crash
// at slot 4500, after the tree completes (perfbench async-recovery's FST
// configuration). Every join, the initial growth included, is picked from
// the frontier with the plan's exclusion and partition filters applied.
func BenchmarkRunFSTCrash(b *testing.B) {
	b.Run("n=400", func(b *testing.B) {
		cfg := PaperConfig(400, 7)
		cfg.Faults = crashWave(cfg.N, 4500)
		benchmarkRunCfg(b, FST{}, cfg)
	})
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
// It is not part of `make bench` (n=5000 takes about 8.5 minutes per side
// on two CPUs); run it with
//
//	go test -run '^$' -bench 'BenchmarkRunFSTSharded' -benchtime 1x -timeout 60m ./internal/core/
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

// steadyEngine builds cfg's engine and steps it through the given number
// of periods, every slot stepped and every decoded pulse coupled (mesh
// coupling keeps each one on the PRC path, the worst case for delivery).
// That saturates the discovery tables and the reused buffers, so what
// follows measures the steady-state loop, not their one-time growth. step
// steps the next slot.
func steadyEngine(tb testing.TB, cfg Config, periods int) (eng *engine, step func()) {
	env, err := NewEnv(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng = newEngine(env)
	couples := func(sender, receiver int) bool { return true }
	var ops uint64
	var slot units.Slot
	step = func() {
		slot++
		eng.stepSlot(slot, couples, 1, &ops)
	}
	for s := 0; s < periods*cfg.PeriodSlots; s++ {
		step()
	}
	return eng, step
}

// benchRounds is how many windows a steady-state slot benchmark measures
// per case.
const benchRounds = 5

// slotCase is one sub-benchmark of benchSlots.
type slotCase struct {
	name string
	cfg  Config
}

// benchSlots benchmarks the steady-state slot loop of each case's engine
// after a three-period warm-up. The cases run in benchRounds alternating
// rounds, each round measuring the next window of every case in turn, so a
// drift in the host's speed hits all of them alike and cancels out of a
// comparison between two. Each engine is built and warmed once and steps on
// from window to window. go test names the repeats of a case name#01,
// name#02, ...; benchjson folds them into one row by median. A -bench
// pattern that ends a case name with $ matches only the first round, so a
// case that ran in some rounds but not all fails the benchmark instead of
// silently recording one window.
func benchSlots(b *testing.B, cases ...slotCase) {
	engines := make([]*engine, len(cases))
	steps := make([]func(), len(cases))
	rounds := make([]int, len(cases))
	defer func() {
		for _, eng := range engines {
			if eng != nil {
				eng.close()
			}
		}
	}()
	for r := 0; r < benchRounds; r++ {
		for i, c := range cases {
			ran := false
			b.Run(c.name, func(b *testing.B) {
				ran = true
				if engines[i] == nil {
					engines[i], steps[i] = steadyEngine(b, c.cfg, 3)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					steps[i]()
				}
			})
			if ran {
				rounds[i]++
			}
		}
	}
	for i, c := range cases {
		if rounds[i] > 0 && rounds[i] < benchRounds {
			b.Fatalf("%s ran in %d of %d rounds: the -bench pattern misses its repeats %s#01…, end it with \\b instead of $",
				c.name, rounds[i], benchRounds, c.name)
		}
	}
}

// BenchmarkStepSlot measures one slot of the hot loop — oscillator advance,
// transport resolution, pulse delivery — on the reference stepper (seq) and
// on the engine at one worker (shard), at four workers and at one per CPU.
// Every slot is stepped, as in the dense regime. `make bench` records
// n <= 20000 in BENCH.json and gates shard against seq there. The n=100000
// rows (about ten minutes on two CPUs) are measured with the same
// one-period windows by
//
//	go test -run '^$' -bench 'BenchmarkStepSlot/.*/n=100000' -benchtime 100x -timeout 30m ./internal/core/
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
		var cases []slotCase
		for _, mode := range modes {
			cfg := PaperConfig(n, 7)
			cfg.Workers = mode.workers
			if mode.oracle {
				cfg = withOracle(cfg)
			}
			cases = append(cases, slotCase{fmt.Sprintf("%s/n=%d", mode.name, n), cfg})
		}
		benchSlots(b, cases...)
	}
}
