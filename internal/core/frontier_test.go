package core

import (
	"fmt"
	"testing"

	"repro/internal/asyncnet"
)

// Without a fault plan the FST baseline picks each join from an incremental
// frontier instead of scanning every neighbour table; the scan
// (fstBestOutgoing) stays as the oracle. At every join round of small random
// worlds — fresh, at several worker counts, under an asynchrony plan, and
// resumed mid-join from a checkpoint — the frontier must pick the scan's
// edge and charge the scan's ops.

// checkFrontierPicks runs FST on cfg, comparing every join pick against the
// scan, and returns the number of edges picked.
func checkFrontierPicks(t *testing.T, label string, cfg Config) int {
	t.Helper()
	picks := 0
	cfg.fstPick = func(ft *fstTree, u, v int, ok bool, ops uint64) {
		if ft.front == nil {
			t.Fatalf("%s: a fault-free run picked without its frontier", label)
		}
		var scanOps uint64
		su, sv, sok := fstBestOutgoing(ft.h.env, ft.inTree, nil, nil, &scanOps)
		if u != su || v != sv || ok != sok {
			t.Fatalf("%s: slot %d: frontier picked (%d,%d,%v), the scan (%d,%d,%v)",
				label, ft.h.slot, u, v, ok, su, sv, sok)
		}
		if ops != scanOps {
			t.Fatalf("%s: slot %d: frontier charged %d ops, the scan %d", label, ft.h.slot, ops, scanOps)
		}
		if ok {
			picks++
		}
	}
	res := FST{}.Run(mustEnv(t, cfg))
	if cfg.Resume == nil && (!res.Converged || picks != cfg.N-1) {
		t.Fatalf("%s: %d joins picked (converged=%v), want %d", label, picks, res.Converged, cfg.N-1)
	}
	return picks
}

func TestFSTFrontierMatchesScan(t *testing.T) {
	for _, n := range []int{30, 80} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, l := range layouts[2:] { // Workers 1, 2 and 4
				cfg := l.apply(PaperConfig(n, seed))
				checkFrontierPicks(t, fmt.Sprintf("n=%d/seed=%d/%s", n, seed, l.name), cfg)
			}
		}
	}
	// Under an asynchrony plan the crossing deliveries arrive delayed,
	// reordered and duplicated through the message queue.
	net := &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 25, Reorder: true, DupRate: 0.02}
	for _, l := range layouts {
		checkFrontierPicks(t, "net/"+l.name, l.apply(netCfg(40, 31, 1600, net)))
	}
}

// A resumed run rebuilds its frontier from the restored neighbour tables;
// every pick after a mid-join checkpoint must still match the scan.
func TestFSTFrontierResumedMatchesScan(t *testing.T) {
	cfg := PaperConfig(60, 5)
	cfg.CheckpointEvery = 80
	var first, last int64
	probe := cfg
	probe.fstPick = func(ft *fstTree, _, _ int, ok bool, _ uint64) {
		if ok {
			if first == 0 {
				first = int64(ft.h.slot)
			}
			last = int64(ft.h.slot)
		}
	}
	_, cks := checkpointRun(t, FST{}, probe)
	resumed := 0
	for _, ck := range cks {
		if int64(ck.slot) <= first || int64(ck.slot) >= last {
			continue // not mid-join
		}
		for _, l := range layouts[2:] {
			rCfg := l.apply(cfg)
			rCfg.CheckpointEvery = 0
			rCfg.Resume = decodeCheckpoint(t, ck)
			if checkFrontierPicks(t, fmt.Sprintf("resume@%d/%s", ck.slot, l.name), rCfg) == 0 {
				t.Fatalf("resume@%d/%s: no join left after a mid-join checkpoint", ck.slot, l.name)
			}
		}
		resumed++
	}
	if resumed == 0 {
		t.Fatalf("no checkpoint fell between the first join (slot %d) and the last (slot %d)", first, last)
	}
}
