package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// branchBase builds the small base config the differential tests share.
func branchBase(n int, seed int64) core.Config {
	cfg := core.PaperConfig(n, seed)
	cfg.MaxSlots = 60000
	return cfg
}

func crashPlan(at int64, devices ...int) *faults.Plan {
	p := &faults.Plan{Version: faults.PlanSchema}
	for _, d := range devices {
		p.Actions = append(p.Actions, faults.Action{Kind: faults.KindCrash, At: at, Device: d})
	}
	return p
}

// scratchRun runs one branch from slot 1 with no planner involvement.
func scratchRun(t *testing.T, cfg core.Config, proto core.Protocol, b Branch) core.Result {
	t.Helper()
	if b.Configure != nil {
		b.Configure(&cfg)
	}
	cfg.Faults = b.Faults
	env, err := core.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return proto.Run(env)
}

// TestRunBranchesMatchesFromScratch is the differential acceptance gate for
// the prefix planner: every branch the planner runs from a shared capture
// must be byte-identical to the same branch run from slot 1 — in the dense
// regime where nearly every slot is stepped ("slot"), in a sparse one where
// most slots are skipped ("event"), and at one worker per CPU ("auto") or
// two ("sharded") — and the base run's own result must be unaffected by the
// capture hook.
func TestRunBranchesMatchesFromScratch(t *testing.T) {
	variants := []struct {
		name           string
		period, slotWk int
	}{
		{"slot", 0, 0},
		{"event", 400, 0},
		{"auto", 0, -1},
		{"sharded", 0, 2},
	}
	for _, v := range variants {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
			t.Run(v.name+"/"+proto.Name(), func(t *testing.T) {
				cfg := branchBase(28, 7)
				if v.period > 0 {
					cfg.PeriodSlots = v.period
				}
				cfg.Workers = v.slotWk

				// Probe run: calibrate the prefix to land mid-trajectory.
				probe := scratchRun(t, cfg, proto, Branch{})
				if !probe.Converged {
					t.Fatal("probe run did not converge")
				}
				T := units.Slot(cfg.PeriodSlots)
				prefix := probe.ConvergenceSlots / 2
				if prefix <= T {
					t.Fatalf("convergence at %d leaves no room for a prefix", probe.ConvergenceSlots)
				}
				crashAt := int64(prefix) + 2*int64(T) + 50
				branches := []Branch{
					// Earliest action two periods past the prefix: shareable.
					{Name: "crash-after", Faults: crashPlan(crashAt, 26, 27)},
					// Action inside the prefix: must fall back to from-scratch.
					{Name: "crash-before", Faults: crashPlan(int64(T), 26, 27)},
					// Config edit with a declared post-prefix divergence slot.
					{Name: "churn", Configure: func(c *core.Config) {
						c.FailAt = units.Slot(crashAt)
						c.FailSet = []int{0, 1}
					}, DivergeAt: units.Slot(crashAt)},
				}
				base, brs, err := RunBranches(cfg, proto, prefix, branches, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, probe) {
					t.Errorf("base result changed by prefix capture:\n%+v\n%+v", base, probe)
				}
				wantShared := []bool{true, false, true}
				for i, b := range branches {
					if brs[i].SharedPrefix != wantShared[i] {
						t.Errorf("branch %q: SharedPrefix=%v, want %v", b.Name, brs[i].SharedPrefix, wantShared[i])
					}
					scratch := scratchRun(t, cfg, proto, b)
					if !reflect.DeepEqual(brs[i].Res, scratch) {
						t.Errorf("branch %q diverges from its from-scratch run:\n%+v\n%+v",
							b.Name, brs[i].Res, scratch)
					}
				}
			})
		}
	}
}

// TestRunBranchesForkDeterministic pins the ForkStreams contract: a forked
// branch has no from-scratch equivalent, but the same label must reproduce
// the same future, and a fork must diverge from the unforked continuation.
func TestRunBranchesForkDeterministic(t *testing.T) {
	cfg := branchBase(24, 11)
	prefix := 4 * units.Slot(cfg.PeriodSlots)
	branches := []Branch{
		{Name: "fork-a", ForkStreams: "what-if"},
		{Name: "fork-a-again", ForkStreams: "what-if"},
		{Name: "fork-b", ForkStreams: "other"},
	}
	base, brs, err := RunBranches(cfg, core.ST{}, prefix, branches, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range brs {
		if !b.SharedPrefix {
			t.Fatalf("fork branch %q did not share the prefix", b.Name)
		}
	}
	if !reflect.DeepEqual(brs[0].Res, brs[1].Res) {
		t.Error("same fork label produced different results")
	}
	if reflect.DeepEqual(brs[0].Res, brs[2].Res) && reflect.DeepEqual(brs[0].Res, base) {
		t.Error("fork labels changed nothing: both forks equal the base run")
	}

	base2, brs2, err := RunBranches(cfg, core.ST{}, prefix, branches, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, base2) || !reflect.DeepEqual(brs, brs2) {
		t.Error("RunBranches not deterministic across invocations/worker counts")
	}
}

func TestRunBranchesValidation(t *testing.T) {
	cfg := branchBase(20, 1)
	proto := core.FST{}

	bad := cfg
	bad.Faults = crashPlan(500, 19)
	if _, _, err := RunBranches(bad, proto, 100, nil, 1); err == nil {
		t.Error("base config with fault plan should error")
	}
	bad = cfg
	bad.Resume = &snapshot.State{}
	if _, _, err := RunBranches(bad, proto, 100, nil, 1); err == nil {
		t.Error("base config with Resume should error")
	}
	bad = cfg
	bad.OnPrefix = func(*snapshot.State) {}
	if _, _, err := RunBranches(bad, proto, 100, nil, 1); err == nil {
		t.Error("base config with OnPrefix should error")
	}
	if _, _, err := RunBranches(cfg, proto, -1, nil, 1); err == nil {
		t.Error("negative prefix slot should error")
	}
	// A fork branch with no capture available (prefix 0) must fail rather
	// than silently run an undefined from-scratch fork.
	forks := []Branch{{Name: "fork", ForkStreams: "x"}}
	if _, _, err := RunBranches(cfg, proto, 0, forks, 1); err == nil {
		t.Error("fork branch without a prefix capture should error")
	}
}

// TestPrefixCloneMatchesCodec pins Clone against the codec on a real
// mid-run state, fault section included: Encode(st) == Encode(st.Clone()).
func TestPrefixCloneMatchesCodec(t *testing.T) {
	for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := branchBase(30, 5)
			// A crash wave before the capture populates the fault section
			// (watchdog armed, crashed devices) in the captured state.
			cfg.Faults = crashPlan(400, 27, 28, 29)
			// Calibrate the capture between the crash and convergence.
			probe := scratchRun(t, cfg, proto, Branch{})
			if probe.ConvergenceSlots <= 400+units.Slot(cfg.PeriodSlots) {
				t.Fatalf("faulted run over at %d; no room to capture past the crash",
					probe.ConvergenceSlots)
			}
			cfg.PrefixSlot = (400 + probe.ConvergenceSlots) / 2
			var cap *snapshot.State
			cfg.OnPrefix = func(st *snapshot.State) { cap = st }
			env, err := core.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			proto.Run(env)
			if cap == nil {
				t.Fatal("run ended before the prefix slot; no capture to compare")
			}
			enc, err := snapshot.Encode(cap)
			if err != nil {
				t.Fatal(err)
			}
			encClone, err := snapshot.Encode(cap.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, encClone) {
				t.Errorf("Clone() not byte-identical to codec round trip (%d vs %d bytes)",
					len(enc), len(encClone))
			}
		})
	}
}

// TestRunRecoverySweepPrefixIdentical pins the recovery driver's prefix-reuse
// contract: rows are bit-identical with and without PrefixSlots.
func TestRunRecoverySweepPrefixIdentical(t *testing.T) {
	opts := smallOptions()
	opts.Sizes = []int{30}
	plain, err := RunRecoverySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cadence := range []units.Slot{500, -1} { // explicit and auto
		opts.PrefixSlots = cadence
		shared, err := RunRecoverySweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(shared) {
			t.Fatalf("row count differs: %d vs %d", len(plain), len(shared))
		}
		for i := range plain {
			if plain[i] != shared[i] {
				t.Errorf("row %d differs with PrefixSlots=%d:\n%+v\n%+v",
					i, cadence, plain[i], shared[i])
			}
		}
	}
}

// TestGeometryCacheBitIdentical pins the environment memoization: a run built
// through a GeometryCache is bit-identical to one built cold, and the second
// environment of a deployment hits the cache.
func TestGeometryCacheBitIdentical(t *testing.T) {
	cfg := branchBase(20, 3)
	cold := scratchRun(t, cfg, core.ST{}, Branch{})

	cfg.Geometry = core.NewGeometryCache()
	first := scratchRun(t, cfg, core.ST{}, Branch{})
	second := scratchRun(t, cfg, core.ST{}, Branch{})
	if !reflect.DeepEqual(cold, first) || !reflect.DeepEqual(first, second) {
		t.Error("memoized geometry changed run results")
	}
	hits, misses := cfg.Geometry.Stats()
	if misses != 1 || hits != 1 {
		t.Errorf("geometry cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}
