package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
)

// Differential pin for the parallel path: for every tested worker count the
// engine must produce results byte-identical to the reference stepper —
// same fired sequence, same discovery tables, same counters, same ops. The
// sizes here would derive a single shard (and so no worker pool —
// TestWorkersAutoPolicy pins that policy), so the shard count is forced;
// sizes are capped by MaxSlots so the large cases stay affordable —
// bit-identity does not need convergence, only identical trajectories.

// fireEvent is one trace.KindFire event, in callback order.
type fireEvent struct {
	slot units.Slot
	dev  int
}

// runFingerprint collects everything the differential test compares.
type runFingerprint struct {
	res   Result
	fires []fireEvent
	// tables is the run's final neighbour tables: two runs agree on them
	// only if every device recorded the same observations in the same
	// order (the dB sums are order-sensitive).
	tables *neighborTable
}

// sameTables reports whether two runs' neighbour tables hold the same
// count, dB sum and latest sample in every entry.
func sameTables(a, b *neighborTable) bool {
	return slices.Equal(a.count, b.count) && slices.Equal(a.sum, b.sum) && slices.Equal(a.last, b.last)
}

// recordFires chains onto cfg's EventTrace hook and appends every fire event
// it passes to *fires.
func recordFires(cfg *Config, fires *[]fireEvent) {
	next := cfg.EventTrace
	cfg.EventTrace = func(ev trace.Event) {
		if ev.Kind == trace.KindFire {
			*fires = append(*fires, fireEvent{slot: ev.Slot, dev: ev.A})
		}
		if next != nil {
			next(ev)
		}
	}
}

func fingerprint(t *testing.T, proto Protocol, n int, seed int64, maxSlots units.Slot, l layout) runFingerprint {
	t.Helper()
	cfg := PaperConfig(n, seed)
	cfg.MaxSlots = maxSlots
	cfg = l.apply(cfg)
	var fires []fireEvent
	recordFires(&cfg, &fires)
	env := mustEnv(t, cfg)
	res := proto.Run(env)
	// Strip the non-comparable pieces that don't add signal beyond the
	// scalars: TreeEdges/TreePhases are pinned via weight and count.
	fp := runFingerprint{res: res, fires: fires, tables: env.nbr}
	return fp
}

func compareFingerprints(t *testing.T, label string, want, got runFingerprint) {
	t.Helper()
	w, g := want.res, got.res
	if w.Converged != g.Converged || w.ConvergenceSlots != g.ConvergenceSlots {
		t.Errorf("%s: convergence differs: seq (%v, %d) vs par (%v, %d)",
			label, w.Converged, w.ConvergenceSlots, g.Converged, g.ConvergenceSlots)
	}
	if w.Counters != g.Counters {
		t.Errorf("%s: counters differ:\nseq %+v\npar %+v", label, w.Counters, g.Counters)
	}
	if w.Ops != g.Ops {
		t.Errorf("%s: ops differ: seq %d vs par %d", label, w.Ops, g.Ops)
	}
	if w.DiscoveredLinks != g.DiscoveredLinks {
		t.Errorf("%s: discovered links differ: seq %d vs par %d", label, w.DiscoveredLinks, g.DiscoveredLinks)
	}
	if w.ServiceDiscovery != g.ServiceDiscovery {
		t.Errorf("%s: service discovery differs: seq %v vs par %v", label, w.ServiceDiscovery, g.ServiceDiscovery)
	}
	if !sameTables(want.tables, got.tables) {
		t.Errorf("%s: neighbour tables differ", label)
	}
	if w.TreeWeight != g.TreeWeight || len(w.TreeEdges) != len(g.TreeEdges) {
		t.Errorf("%s: tree differs: seq (%d edges, %v) vs par (%d edges, %v)",
			label, len(w.TreeEdges), w.TreeWeight, len(g.TreeEdges), g.TreeWeight)
	}
	if len(want.fires) != len(got.fires) {
		t.Errorf("%s: fired sequence length differs: seq %d vs par %d",
			label, len(want.fires), len(got.fires))
		return
	}
	for i := range want.fires {
		if want.fires[i] != got.fires[i] {
			t.Errorf("%s: fired sequence diverges at event %d: seq %+v vs par %+v",
				label, i, want.fires[i], got.fires[i])
			return
		}
	}
}

func TestParallelEngineBitIdenticalToSequential(t *testing.T) {
	cases := []struct {
		n        int
		maxSlots units.Slot
	}{
		// n=50 runs to convergence; the larger sizes are slot-capped so
		// the table stays affordable (identity holds slot by slot, so a
		// truncated trajectory pins it just as hard).
		{n: 50, maxSlots: 2000},
		{n: 200, maxSlots: 1000},
		{n: 800, maxSlots: 400},
	}
	seeds := []int64{1, 2, 3}
	protocols := []Protocol{FST{}, ST{}}
	workerCounts := []int{2, 4, 8}

	for _, c := range cases {
		for _, seed := range seeds {
			for _, proto := range protocols {
				seq := fingerprint(t, proto, c.n, seed, c.maxSlots, layouts[0])
				if len(seq.fires) == 0 {
					t.Fatalf("%s n=%d seed=%d: reference run produced no fires", proto.Name(), c.n, seed)
				}
				for _, workers := range workerCounts {
					par := fingerprint(t, proto, c.n, seed, c.maxSlots, layout{workers: workers, shards: 4})
					label := fmtLabel(proto.Name(), c.n, seed, workers)
					compareFingerprints(t, label, seq, par)
				}
			}
		}
	}
}

// Workers alone, at sizes below the shard floor, must keep a run on one
// shard and off the worker pool (the n=5000-regression fix: no more
// hand-tuned -slotworkers on small runs) — and above the floor must cut the
// deployment into shards.
func TestWorkersAutoPolicy(t *testing.T) {
	small := PaperConfig(100, 1)
	small.Workers = -1
	eS := newEngine(mustEnv(t, small))
	defer eS.close()
	if eS.sh == nil || eS.sh.sm.count != 1 || eS.pool != nil {
		t.Error("n=100 with Workers=-1 should run one shard without a pool")
	}

	large := PaperConfig(1500, 1)
	large.Workers = -1
	eL := newEngine(mustEnv(t, large))
	defer eL.close()
	if eL.sh == nil || eL.sh.sm.count != 5 {
		t.Error("n=1500 with Workers=-1 should run five shards")
	}

	forced := PaperConfig(100, 1)
	forced.shards = 4
	eF := newEngine(mustEnv(t, forced))
	defer eF.close()
	if eF.sh == nil || eF.sh.sm.count != 4 {
		t.Error("a forced shard count of 4 should yield four shards")
	}
}

func fmtLabel(proto string, n int, seed int64, workers int) string {
	return fmt.Sprintf("%s/n=%d/seed=%d/workers=%d", proto, n, seed, workers)
}

// Negative workers resolve to NumCPU; the result must still match the
// reference bit for bit (it always does — the knob only changes
// scheduling).
func TestWorkersNumCPUMatchesSequential(t *testing.T) {
	seq := fingerprint(t, ST{}, 50, 9, 2000, layouts[0])
	par := fingerprint(t, ST{}, 50, 9, 2000, layout{workers: -1, shards: 8})
	compareFingerprints(t, "ST/workers=NumCPU", seq, par)
}
