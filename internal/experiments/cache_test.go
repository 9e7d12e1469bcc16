package experiments

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/units"
)

// testPathLoss is a minimal PathLoss stand-in for key-discrimination tests.
type testPathLoss struct{ offset float64 }

func (p testPathLoss) Loss(d units.Metre) units.DB {
	return units.DB(p.offset + 20*math.Log10(math.Max(float64(d), 1)))
}
func (p testPathLoss) Name() string { return "test-model" }

func TestCacheKeyStable(t *testing.T) {
	cfg := core.PaperConfig(40, 9)
	k1, ok1 := CacheKey(cfg, "FST")
	k2, ok2 := CacheKey(cfg, "FST")
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("same config produced keys %q/%q (ok %v/%v)", k1, k2, ok1, ok2)
	}

	// Knobs provably absent from the Result must not perturb the key — a
	// cached row serves any worker count. Workers never changes the key:
	// the engine steps the same slots at every worker count, so even
	// Result.ActiveSlots is the same.
	neutral := []func(*core.Config){
		func(c *core.Config) { c.Workers = 1 },
		func(c *core.Config) { c.Workers = 8 },
		func(c *core.Config) { c.Workers = -1 },
	}
	for i, edit := range neutral {
		c := cfg
		edit(&c)
		if k, ok := CacheKey(c, "FST"); !ok || k != k1 {
			t.Errorf("neutral edit %d changed the key (ok=%v)", i, ok)
		}
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	cfg := core.PaperConfig(40, 9)
	edits := map[string]func(*core.Config){
		"n":    func(c *core.Config) { c.N = 41 },
		"seed": func(c *core.Config) { c.Seed = 10 },
		// Checkpoint boundaries are stepped slots: they show in
		// Result.ActiveSlots.
		"checkpoint": func(c *core.Config) { c.CheckpointEvery = 1000 },
		"period":     func(c *core.Config) { c.PeriodSlots = 120 },
		"maxslots":   func(c *core.Config) { c.MaxSlots = 50000 },
		"faults":     func(c *core.Config) { c.Faults = crashPlan(600, 0) },
		"pathloss":   func(c *core.Config) { c.PathLoss = testPathLoss{offset: 3} },
	}
	base, ok := CacheKey(cfg, "FST")
	if !ok {
		t.Fatal("base config not cacheable")
	}
	seen := map[string]string{base: "base"}
	if k, ok := CacheKey(cfg, "ST"); !ok || k == base {
		t.Error("protocol not part of the key")
	}
	for name, edit := range edits {
		c := cfg
		edit(&c)
		k, ok := CacheKey(c, "FST")
		if !ok {
			t.Errorf("edit %q made the config uncacheable", name)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("edit %q collides with %q", name, prev)
		}
		seen[k] = name
	}
	// Two differently-parameterized models under one Name() must still be
	// told apart by the loss-curve probe.
	a, b := cfg, cfg
	a.PathLoss = testPathLoss{offset: 1}
	b.PathLoss = testPathLoss{offset: 2}
	ka, _ := CacheKey(a, "FST")
	kb, _ := CacheKey(b, "FST")
	if ka == kb {
		t.Error("path-loss probe failed to distinguish models sharing a name")
	}
}

func TestCacheKeyRefusesUnrepresentable(t *testing.T) {
	uncacheable := map[string]func(*core.Config){
		"resume":       func(c *core.Config) { c.Resume = &snapshot.State{} },
		"oncheckpoint": func(c *core.Config) { c.OnCheckpoint = func(*snapshot.State) {} },
		"eventtrace":   func(c *core.Config) { c.EventTrace = func(trace.Event) {} },
		"progress":     func(c *core.Config) { c.ProgressTrace = func(units.Slot) {} },
		"nopathloss":   func(c *core.Config) { c.PathLoss = nil },
	}
	for name, edit := range uncacheable {
		c := core.PaperConfig(40, 9)
		edit(&c)
		if _, ok := CacheKey(c, "FST"); ok {
			t.Errorf("config with %s should refuse caching", name)
		}
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2, "")
	r := func(i int64) core.Result { return core.Result{Converged: true, ConvergenceSlots: units.Slot(i)} }
	c.Put("a", r(1))
	c.Put("b", r(2))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", r(3)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || got.ConvergenceSlots != 1 {
		t.Error("a lost or corrupted")
	}
	if got, ok := c.Get("c"); !ok || got.ConvergenceSlots != 3 {
		t.Error("c lost or corrupted")
	}
}

func TestResultCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	res := core.Result{Converged: true, ConvergenceSlots: 1234, Ops: 56}

	c1 := NewResultCache(4, dir)
	c1.Put("k1", res)

	// A fresh cache over the same directory serves the entry.
	c2 := NewResultCache(4, dir)
	got, ok := c2.Get("k1")
	if !ok {
		t.Fatal("disk tier miss for persisted entry")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("disk round trip changed the result:\n%+v\n%+v", got, res)
	}
	// ... and the disk hit is promoted: a second Get is a memory hit.
	if _, ok := c2.Get("k1"); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}

	// A corrupted file must miss, not fail.
	if err := os.WriteFile(filepath.Join(dir, "k2.json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k2"); ok {
		t.Error("corrupted entry served")
	}
	// A valid entry moved to the wrong address must miss: the embedded key
	// disagrees with the file name.
	raw, err := os.ReadFile(filepath.Join(dir, "k1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k3.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k3"); ok {
		t.Error("entry served under the wrong address")
	}
}

// TestRunSweepWarmCache pins the sweep-level cache contract for every
// driver: a warm re-run returns identical rows and serves every run from the
// cache, and OnResult fires once per run either way — once per cache miss on
// the cold run (reference runs included), once per hit on the warm one.
func TestRunSweepWarmCache(t *testing.T) {
	for _, d := range sweepDrivers {
		t.Run(d.name, func(t *testing.T) {
			opts := smallOptions()
			opts.Sizes = []int{20}
			opts.Cache = NewResultCache(0, "")
			var mu sync.Mutex
			calls := 0
			opts.OnResult = func(int, string, core.Result) {
				mu.Lock()
				calls++
				mu.Unlock()
			}
			cold, err := d.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			jobs := len(opts.Sizes) * opts.Seeds * d.perSeed
			hits, misses := opts.Cache.Stats()
			if hits != 0 || misses < uint64(jobs) {
				t.Fatalf("cold sweep stats hits=%d misses=%d, want 0 hits and >= %d misses", hits, misses, jobs)
			}
			if calls != int(misses) {
				t.Fatalf("cold sweep fired OnResult %d times for %d cache misses", calls, misses)
			}

			calls = 0
			warm, err := d.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			hits, warmMisses := opts.Cache.Stats()
			if hits != misses || warmMisses != misses {
				t.Errorf("warm sweep stats hits=%d misses=%d, want %d/%d", hits, warmMisses, misses, misses)
			}
			if calls != int(hits) {
				t.Errorf("warm sweep fired OnResult %d times for %d cache hits", calls, hits)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("rows differ between cold and warm sweep:\n%+v\n%+v", cold, warm)
			}
		})
	}
}

// TestRunSweepConfigureErrorReturns is the worker-pool deadlock regression
// for every driver: when every run's config fails to build (a slot cap
// shorter than one period fails Validate), the sweep must surface the error
// promptly instead of wedging its worker pool.
func TestRunSweepConfigureErrorReturns(t *testing.T) {
	for _, d := range sweepDrivers {
		t.Run(d.name, func(t *testing.T) {
			opts := smallOptions()
			opts.Sizes = []int{20}
			opts.Seeds = 8 // more jobs than workers: the pool must not wedge
			opts.Workers = 2
			opts.MaxSlots = 1
			done := make(chan error, 1)
			go func() {
				_, err := d.run(opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Error("sweep with an invalid run config should error")
				}
			case <-time.After(60 * time.Second):
				t.Fatal("sweep deadlocked on an invalid run config")
			}
		})
	}
}

// crashPlan crashes the given devices together at slot at.
func crashPlan(at int64, devices ...int) *faults.Plan {
	p := &faults.Plan{Version: faults.PlanSchema}
	for _, d := range devices {
		p.Actions = append(p.Actions, faults.Action{Kind: faults.KindCrash, At: at, Device: d})
	}
	return p
}

// scratchRun runs proto under cfg from slot 1.
func scratchRun(t *testing.T, cfg core.Config, proto core.Protocol) core.Result {
	t.Helper()
	env, err := core.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return proto.Run(env)
}

// TestGeometryCacheBitIdentical pins the environment memoization under the
// sharing the ablation sweeps rely on: one cache serves every variant of a
// deployment, and a run that reads its world from that shared cache must be
// bit-identical to a cold run, for every model knob an ablation varies.
func TestGeometryCacheBitIdentical(t *testing.T) {
	knobs := []struct {
		name string
		edit func(*core.Config)
	}{
		{"baseline", func(*core.Config) {}},
		{"ShadowSigmaDB", func(c *core.Config) { c.ShadowSigmaDB = 4 }},
		{"CaptureMarginDB", func(c *core.Config) { c.CaptureMarginDB = 12 }},
		{"Preambles", func(c *core.Config) { c.Preambles = 64 }},
		{"SINRDetection", func(c *core.Config) { c.SINRDetection = true }},
		{"CorrelatedChannel", func(c *core.Config) { c.CorrelatedChannel = true }},
		{"ClockDriftPPM", func(c *core.Config) { c.ClockDriftPPM = 500; c.SyncWindowSlots = 1 }},
		{"MeshCoupling", func(c *core.Config) { c.MeshCoupling = true }},
		{"Services", func(c *core.Config) { c.Services = 4 }},
	}
	protos := []core.Protocol{core.FST{}, core.ST{}}
	shared := core.NewGeometryCache()
	for _, k := range knobs {
		for _, proto := range protos {
			cfg := core.PaperConfig(20, 3)
			cfg.MaxSlots = 60000
			k.edit(&cfg)
			cold := scratchRun(t, cfg, proto)
			cfg.Geometry = shared
			if warm := scratchRun(t, cfg, proto); !reflect.DeepEqual(cold, warm) {
				t.Errorf("%s/%s: run on the shared geometry cache differs from a cold run", k.name, proto.Name())
			}
		}
	}
	// Two worlds: the paper's σ and the ShadowSigmaDB variant's.
	hits, misses := shared.Stats()
	if runs := uint64(len(knobs) * len(protos)); misses != 2 || hits != runs-2 {
		t.Errorf("geometry cache stats hits=%d misses=%d, want %d/2", hits, misses, runs-2)
	}
}
