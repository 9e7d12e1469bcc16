package core

import (
	"fmt"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/faults"
)

// The FST baseline picks each join from an incremental frontier instead of
// scanning every neighbour table; the scan (fstBestOutgoing) is the oracle.
// At every join round of small random worlds — fresh, at several worker
// counts, under an asynchrony plan, resumed mid-join from a checkpoint, and
// under fault plans that crash, recover, join and split devices — the
// frontier must pick the scan's edge and charge the scan's ops.

// fstBestOutgoing is the oracle the join frontier (fstFrontier) is checked
// against: the baseline's modelled per-round cost, taken literally. It scans
// every tree member's neighbour table (and every outsider's view toward tree
// members) for the heaviest edge leaving the tree, ranked by the *latest*
// RSSI sample, and charges ops the size of every table it scans. Under a
// fault plan (non-nil presumed) powered-off and presumed-dead devices
// neither scan nor qualify as endpoints, and edges the blocked predicate
// vetoes (an active network split) cannot carry the join handshake.
func fstBestOutgoing(env *Env, inTree []bool, presumed []bool, blocked func(int, int) bool, ops *uint64) (u, v int, ok bool) {
	excluded := func(i int) bool { return presumed != nil && (!env.Alive[i] || presumed[i]) }
	t := env.nbr
	best := -1e18
	for i := range env.Devices {
		if excluded(i) {
			continue
		}
		*ops += uint64(t.links[i])
		for _, e := range t.idx.ByID(i) {
			peer := t.idx.Peer(int(e))
			if !t.heard(int(e)) || excluded(peer) || (blocked != nil && blocked(i, peer)) {
				continue
			}
			var tu, tv int
			switch {
			case inTree[i] && !inTree[peer]:
				tu, tv = i, peer
			case !inTree[i] && inTree[peer]:
				tu, tv = peer, i
			default:
				continue
			}
			w := float64(t.last[e])
			// Deterministic tie-break keeps runs reproducible even
			// in the measure-zero case of equal samples.
			if !ok || w > best || (w == best && (tu < u || (tu == u && tv < v))) {
				best, u, v, ok = w, tu, tv, true
			}
		}
	}
	return u, v, ok
}

// frontierRun is what checkFrontierPicks saw of one FST run.
type frontierRun struct {
	picks int              // join edges picked
	marks [staleCauses]int // the frontier's stale marks by cause
}

// checkFrontierPicks runs FST on cfg, comparing every join pick and its ops
// charge against the scan under the run's own watchdog verdicts and
// partitions.
func checkFrontierPicks(t *testing.T, label string, cfg Config) frontierRun {
	t.Helper()
	var run frontierRun
	var front *fstFrontier
	cfg.fstPick = func(ft *fstTree, u, v int, ok bool, ops uint64) {
		front = ft.front
		h := ft.h
		var scanOps uint64
		su, sv, sok := fstBestOutgoing(h.env, ft.inTree, h.presumedDead, h.linkBlocked, &scanOps)
		if u != su || v != sv || ok != sok {
			t.Fatalf("%s: slot %d: frontier picked (%d,%d,%v), the scan (%d,%d,%v)",
				label, h.slot, u, v, ok, su, sv, sok)
		}
		if ops != scanOps {
			t.Fatalf("%s: slot %d: frontier charged %d ops, the scan %d", label, h.slot, ops, scanOps)
		}
		if ok {
			run.picks++
		}
	}
	res := FST{}.Run(mustEnv(t, cfg))
	if front != nil {
		run.marks = front.marks
	}
	if cfg.Faults == nil {
		if run.marks != [staleCauses]int{} {
			t.Fatalf("%s: a fault-free run marked its frontier stale: %v", label, run.marks)
		}
		if cfg.Resume == nil && (!res.Converged || run.picks != cfg.N-1) {
			t.Fatalf("%s: %d joins picked (converged=%v), want %d", label, run.picks, res.Converged, cfg.N-1)
		}
	}
	return run
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
			if checkFrontierPicks(t, fmt.Sprintf("resume@%d/%s", ck.slot, l.name), rCfg).picks == 0 {
				t.Fatalf("resume@%d/%s: no join left after a mid-join checkpoint", ck.slot, l.name)
			}
		}
		resumed++
	}
	if resumed == 0 {
		t.Fatalf("no checkpoint fell between the first join (slot %d) and the last (slot %d)", first, last)
	}
}

// crashWave crashes the top fifth of n device ids at slot at: the FST crash
// of perfbench's async-recovery workload.
func crashWave(n int, at int64) *faults.Plan {
	plan := &faults.Plan{Version: faults.PlanSchema}
	for d := n - n/5; d < n; d++ {
		plan.Actions = append(plan.Actions, faults.Action{Kind: faults.KindCrash, At: at, Device: d})
	}
	return plan
}

// Under a fault plan the frontier applies the scan's filters and is rebuilt
// whenever a prune, a device coming back or a partition edge could revive
// an entry it dropped. Every pick must match the scan under the run's own
// watchdog verdicts and partitions, and each kind of stale mark must fire
// somewhere in the table, so no case passes with its trigger untested.
func TestFSTFrontierUnderFaultsMatchesScan(t *testing.T) {
	var marks [staleCauses]int
	check := func(label string, cfg Config) {
		t.Helper()
		run := checkFrontierPicks(t, label, cfg)
		if run.picks == 0 {
			t.Fatalf("%s: no join picked", label)
		}
		for c, m := range run.marks {
			marks[c] += m
		}
	}

	// Every fault kind, at several worker counts.
	active := fastConfig(40, 9)
	active.Faults = activePlan(active.N)
	for _, l := range layouts[2:] { // Workers 1, 2 and 4
		check("active/"+l.name, l.apply(active))
	}

	// Two overlapping splits under an asynchrony plan while the tree
	// grows: the first lifts before the watchdog can presume anyone, and a
	// member crashes and another device recovers inside the second.
	net := &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 10, Reorder: true, DupRate: 0.02}
	split := netCfg(40, 31, 6000, net)
	split.Faults = &faults.Plan{
		Version: faults.PlanSchema,
		Actions: []faults.Action{
			{Kind: faults.KindCrash, At: 250, Device: 5},
			{Kind: faults.KindCrash, At: 330, Device: 2},
			{Kind: faults.KindRecover, At: 600, Device: 5},
		},
		Partitions: []faults.Partition{
			{At: 210, Slots: 60, Group: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
			{At: 240, Slots: 500, Group: []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
		},
	}
	for _, l := range layouts[2:] {
		check("split/"+l.name, l.apply(split))
	}

	// The async-recovery workload's FST crash wave at n=200, at its own
	// slot (after the tree completes) and while the tree is still growing.
	for _, at := range []int64{4500, 1000} {
		wave := PaperConfig(200, 1001)
		wave.Faults = crashWave(wave.N, at)
		check(fmt.Sprintf("wave@%d", at), wave)
	}

	// A resume from every checkpoint the active plan's run took while
	// healing: the restored frontier starts stale and rebuilds under the
	// restored verdicts.
	ckCfg := active
	ckCfg.CheckpointEvery = 100
	_, cks := checkpointRun(t, FST{}, ckCfg)
	healing := 0
	for _, ck := range cks {
		st := decodeCheckpoint(t, ck)
		if st.FST.Faults == nil || !st.FST.Faults.Healing {
			continue
		}
		rCfg := active
		rCfg.Resume = st
		check(fmt.Sprintf("resume@%d", ck.slot), rCfg)
		healing++
	}
	if healing == 0 {
		t.Fatal("no checkpoint of the active plan's run was taken mid-heal")
	}

	for c, name := range [staleCauses]string{stalePrune: "prune", staleReturn: "un-exclusion", staleEdge: "partition edge"} {
		if marks[c] == 0 {
			t.Errorf("no case marked the frontier stale on a %s", name)
		}
	}
	t.Logf("stale marks: prune %d, un-exclusion %d, partition edge %d", marks[stalePrune], marks[staleReturn], marks[staleEdge])
}
