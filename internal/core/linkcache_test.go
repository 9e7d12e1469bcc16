package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/rach"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Differential pin for the link-geometry cache: full protocol runs over the
// cached transport must be byte-identical to runs over the direct per-call
// geometry path, for both protocols, across sizes, seeds and worker counts.
// Together with the sequential-vs-parallel pin in parallel_test.go this
// closes the square: {direct, cached} × {sequential, sharded} all agree.

func geomFingerprint(t *testing.T, proto Protocol, n int, seed int64, maxSlots units.Slot, workers int, direct bool) runFingerprint {
	t.Helper()
	cfg := PaperConfig(n, seed)
	cfg.MaxSlots = maxSlots
	cfg.Workers = workers
	cfg.directGeometry = direct
	var fires []fireEvent
	recordFires(&cfg, &fires)
	env := mustEnv(t, cfg)
	res := proto.Run(env)
	return runFingerprint{res: res, fires: fires, tables: env.nbr}
}

func TestLinkIndexEquivalence(t *testing.T) {
	cases := []struct {
		n        int
		maxSlots units.Slot
	}{
		// Same slot caps as the parallel differential: identity holds slot
		// by slot, so truncated trajectories pin it at affordable cost.
		{n: 50, maxSlots: 2000},
		{n: 200, maxSlots: 1000},
		{n: 800, maxSlots: 400},
	}
	seeds := []int64{1, 2, 3}
	protocols := []Protocol{FST{}, ST{}}
	workerCounts := []int{1, 4}

	for _, c := range cases {
		for _, seed := range seeds {
			for _, proto := range protocols {
				ref := geomFingerprint(t, proto, c.n, seed, c.maxSlots, 1, true)
				if len(ref.fires) == 0 {
					t.Fatalf("%s n=%d seed=%d: direct run produced no fires", proto.Name(), c.n, seed)
				}
				for _, workers := range workerCounts {
					cached := geomFingerprint(t, proto, c.n, seed, c.maxSlots, workers, false)
					label := fmt.Sprintf("cached/%s/n=%d/seed=%d/workers=%d", proto.Name(), c.n, seed, workers)
					compareFingerprints(t, label, ref, cached)
				}
			}
		}
	}
}

// TestNewEnvAtRebuildsLinkIndex pins the invalidation contract at the Env
// level: an Env built at explicit (moved) positions must carry a cache
// derived from those positions — every cached pair matches the direct
// derivation, and a full run at the moved deployment is byte-identical to
// the direct-geometry run over the same deployment.
func TestNewEnvAtRebuildsLinkIndex(t *testing.T) {
	cfg := PaperConfig(50, 21)
	cfg.MaxSlots = 2000
	base := mustEnv(t, cfg)

	// Move every device, as a mobility study would between discovery runs.
	drift := xrand.NewStream(77)
	moved := make([]geo.Point, cfg.N)
	for i := range moved {
		p := base.Transport.Position(i)
		moved[i] = geo.Point{X: p.X + drift.Uniform(-15, 15), Y: p.Y + drift.Uniform(-15, 15)}
	}

	env, err := NewEnvAt(cfg, moved)
	if err != nil {
		t.Fatal(err)
	}
	// The candidate radius NewEnv gives the transport: Table I's link budget
	// stretched by the 2σ shadowing margin.
	reach := float64(radio.MaxRange(env.Channel.Model, cfg.TxPower.Add(units.DB(2*cfg.ShadowSigmaDB)), cfg.Threshold, 1e6))
	cachedPairs := 0
	for i := range moved {
		for j := range moved {
			if i == j {
				continue
			}
			d, mean, ok := env.Transport.LinkGeometry(i, j)
			if inRange := moved[i].Dist2(moved[j]) <= reach*reach; ok != inRange {
				t.Fatalf("pair (%d,%d): cached=%v, in range at moved positions=%v", i, j, ok, inRange)
			}
			if !ok {
				continue
			}
			cachedPairs++
			if want := units.Metre(moved[i].Dist(moved[j])); d != want {
				t.Fatalf("pair (%d,%d): cached distance %v, want %v from moved positions", i, j, d, want)
			}
			if want := env.Channel.MeanReceivedPower(cfg.TxPower, d); mean != want {
				t.Fatalf("pair (%d,%d): cached mean %v, want %v", i, j, mean, want)
			}
		}
	}
	if cachedPairs == 0 {
		t.Fatal("no cached pairs at the moved deployment")
	}

	// And the moved deployment runs identically cached vs direct.
	run := func(direct bool) Result {
		c := cfg
		c.directGeometry = direct
		e, err := NewEnvAt(c, moved)
		if err != nil {
			t.Fatal(err)
		}
		return ST{}.Run(e)
	}
	cached, direct := run(false), run(true)
	if cached.Counters != direct.Counters || cached.ConvergenceSlots != direct.ConvergenceSlots || cached.Ops != direct.Ops {
		t.Fatalf("moved deployment diverged: cached (%d, %+v, %d) vs direct (%d, %+v, %d)",
			cached.ConvergenceSlots, cached.Counters, cached.Ops,
			direct.ConvergenceSlots, direct.Counters, direct.Ops)
	}
}

// TestGeometryCacheConcurrentFirstFill pins the first-fill contract of the
// geometry memoization: goroutines that look up one world at the same time
// run the geometry pass once between them (one miss, every other lookup a
// hit), every env shares the one index, and the runs — alternating FST and
// ST, which read the shared index concurrently — are bit-identical per
// protocol.
func TestGeometryCacheConcurrentFirstFill(t *testing.T) {
	const goroutines = 8
	cfg := PaperConfig(30, 4)
	cfg.MaxSlots = 2000
	cfg.Geometry = NewGeometryCache()
	protocols := []Protocol{FST{}, ST{}}
	results := make([]Result, goroutines)
	indices := make([]*rach.LinkIndex, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			env, err := NewEnv(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			indices[i] = env.Transport.LinkIndex()
			results[i] = protocols[i%len(protocols)].Run(env)
		}()
	}
	close(start)
	wg.Wait()
	if hits, misses := cfg.Geometry.Stats(); misses != 1 || hits != goroutines-1 {
		t.Errorf("geometry cache stats hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
	if indices[0] == nil {
		t.Fatal("env 0 has no link index")
	}
	for i := 1; i < goroutines; i++ {
		if indices[i] != indices[0] {
			t.Errorf("env %d holds its own link index, not the shared one", i)
		}
	}
	for i := len(protocols); i < goroutines; i++ {
		if ref := results[i%len(protocols)]; !reflect.DeepEqual(ref, results[i]) {
			t.Fatalf("%s run %d differs from run %d:\n%+v\n%+v",
				protocols[i%len(protocols)].Name(), i, i%len(protocols), ref, results[i])
		}
	}
}
