package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/units"
)

// BenchmarkSweepPrefix measures a recovery-style branching study — one base
// trajectory, S what-if crash continuations diverging near its end — run
// cold (every branch from slot 1) and with the shared checkpoint-prefix
// planner (branches resume a clone of the base capture). The differential
// suite (prefix_test.go) pins both variants byte-identical; this benchmark
// records what the sharing buys, and `make bench` gates shared no slower
// than cold in BENCH.json.
func BenchmarkSweepPrefix(b *testing.B) {
	const n, seed, branches = 200, 7, 5
	cfg := core.PaperConfig(n, seed)
	cfg.MaxSlots = 120000
	// Weak coupling (α just above the convergence bound) stretches the
	// approach to synchrony — the regime where a branching study actually
	// hurts without prefix sharing, and the honest one for this benchmark:
	// with the paper's strong coupling the shared prefix is a small
	// fraction of each branch's work and the planner buys proportionally
	// less.
	cfg.Coupling.Alpha = 1.001

	// Calibrate once: the crash waves land two periods after the base run
	// converges (the recovery-sweep shape), and the shared prefix ends just
	// before convergence, so a shared branch re-simulates only the fault
	// episode instead of the whole approach to synchrony.
	env, err := core.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	probe := core.ST{}.Run(env)
	if !probe.Converged {
		b.Fatal("probe run did not converge")
	}
	T := units.Slot(cfg.PeriodSlots)
	prefix := probe.ConvergenceSlots - T
	crashAt := int64(probe.ConvergenceSlots) + 2*int64(T)
	var bs []Branch
	for i := 0; i < branches; i++ {
		// Small distinct crash waves: the branch work is dominated by the
		// shared approach to synchrony, not the per-branch repair episode —
		// the regime the prefix planner targets.
		p := &faults.Plan{Version: faults.PlanSchema}
		for d := 0; d < 2; d++ {
			p.Actions = append(p.Actions, faults.Action{
				Kind: faults.KindCrash, At: crashAt, Device: (i*7 + d) % n,
			})
		}
		bs = append(bs, Branch{Name: fmt.Sprintf("wave-%d", i), Faults: p})
	}

	for _, v := range []struct {
		name   string
		prefix units.Slot
	}{{"cold", 0}, {"shared", prefix}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, brs, err := RunBranches(cfg, core.ST{}, v.prefix, bs, 1)
				if err != nil {
					b.Fatal(err)
				}
				for _, br := range brs {
					if br.SharedPrefix != (v.prefix > 0) {
						b.Fatalf("branch %q shared=%v under prefix %d", br.Name, br.SharedPrefix, v.prefix)
					}
				}
			}
		})
	}
}

// BenchmarkEnvMemoized measures environment construction cold (positions,
// channel state and the O(n·degree) link index built from scratch) against
// construction through a warm GeometryCache (link index cloned from the
// memoized build).
func BenchmarkEnvMemoized(b *testing.B) {
	cfg := core.PaperConfig(1000, 7)
	for _, v := range []struct {
		name string
		geom *core.GeometryCache
	}{{"cold", nil}, {"memoized", core.NewGeometryCache()}} {
		b.Run(v.name, func(b *testing.B) {
			c := cfg
			c.Geometry = v.geom
			if _, err := core.NewEnv(c); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewEnv(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepCached measures a full RunSweep cold (every job simulated)
// and fully warm (every job served from the content-addressed result cache).
func BenchmarkSweepCached(b *testing.B) {
	opts := Options{
		Sizes:    []int{40, 60},
		Seeds:    3,
		BaseSeed: 1,
		MaxSlots: 60000,
		Workers:  1,
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunSweep(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		o := opts
		o.Cache = NewResultCache(0, "")
		if _, err := RunSweep(o); err != nil { // fill the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunSweep(o); err != nil {
				b.Fatal(err)
			}
		}
	})
}
