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
	"repro/internal/snapshot"
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
		func(c *core.Config) { c.PrefixSlot = 500 },
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
		"failat":     func(c *core.Config) { c.FailAt = 700; c.FailSet = []int{1} },
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
		"fork":         func(c *core.Config) { c.ForkStreams = "x" },
		"oncheckpoint": func(c *core.Config) { c.OnCheckpoint = func(*snapshot.State) {} },
		"onprefix":     func(c *core.Config) { c.OnPrefix = func(*snapshot.State) {} },
		"firetrace":    func(c *core.Config) { c.FireTrace = func(units.Slot, int) {} },
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

// TestRunSweepWarmCache pins the sweep-level cache contract: a warm re-run
// returns identical rows, serves every job from the cache, and still fires
// OnResult exactly once per job.
func TestRunSweepWarmCache(t *testing.T) {
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
	cold, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(opts.Sizes) * opts.Seeds * 2 // two protocols
	if calls != jobs {
		t.Fatalf("cold sweep fired OnResult %d times, want %d", calls, jobs)
	}
	if hits, misses := opts.Cache.Stats(); hits != 0 || misses != uint64(jobs) {
		t.Fatalf("cold sweep stats hits=%d misses=%d, want 0/%d", hits, misses, jobs)
	}

	warm, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2*jobs {
		t.Errorf("warm sweep fired OnResult %d more times, want %d", calls-jobs, jobs)
	}
	if hits, _ := opts.Cache.Stats(); hits != uint64(jobs) {
		t.Errorf("warm sweep hit %d times, want %d", hits, jobs)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Errorf("row %d differs between cold and warm sweep:\n%+v\n%+v", i, cold[i], warm[i])
		}
	}
}

// TestRunSweepConfigureErrorReturns is the worker-pool deadlock regression:
// when every run fails to build, the sweep must surface the error promptly
// instead of the producer blocking forever on a dead worker pool.
func TestRunSweepConfigureErrorReturns(t *testing.T) {
	opts := smallOptions()
	opts.Sizes = []int{20}
	opts.Seeds = 8 // more jobs than workers: the producer must not wedge
	opts.Workers = 2
	opts.Configure = func(c *core.Config) { c.PathLoss = nil }
	done := make(chan error, 1)
	go func() {
		_, err := RunSweep(opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("sweep with failing Configure should error")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunSweep deadlocked on a failing Configure")
	}
}

// Same regression for the recovery driver, which shares the pool shape.
func TestRunRecoverySweepConfigureErrorReturns(t *testing.T) {
	opts := smallOptions()
	opts.Sizes = []int{20}
	opts.Seeds = 8
	opts.Workers = 2
	opts.Configure = func(c *core.Config) { c.PathLoss = nil }
	done := make(chan error, 1)
	go func() {
		_, err := RunRecoverySweep(opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("recovery sweep with failing Configure should error")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunRecoverySweep deadlocked on a failing Configure")
	}
}
