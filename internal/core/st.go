package core

import (
	"repro/internal/ghs"
	"repro/internal/graph"
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/units"
)

// ST is the paper's proposed protocol (Section IV, Algorithms 1–3):
//
//  1. RSSI neighbour discovery: for DiscoveryPeriods periods devices
//     free-run and broadcast PSs on RACH1; every receiver accumulates
//     per-peer RSSI statistics (eq. 7–12 give the distance these imply).
//  2. Heavy-edge fragment merging: every MergeEveryPeriods periods each
//     fragment picks its heaviest outgoing edge (weight = mean observed
//     RSSI) and merges across it via the H_Connect handshake on RACH2 —
//     one ghs.Protocol.Step per merge opportunity. Fragments synchronize
//     internally along tree edges while merging proceeds, so merged
//     fragments arrive already coherent.
//  3. Convergence: when every device fires in the same slot window for
//     StableRounds consecutive periods, the network is synchronized; the
//     same PS traffic has populated neighbour and service discovery tables
//     along the way.
//
// Each processed pulse is charged the ordered-structure ranking cost of
// O(log n) (Algorithm 3's sorted population), versus FST's O(n) scan.
//
// Under a fault plan (Config.Faults) the protocol self-heals through the
// run loop it shares with FST (heal.go); its own part is the repair round,
// which rebuilds the spanning forest over the live set — the surviving
// subtrees are preseeded into a fresh merge protocol for free and the
// orphaned pieces (and recovered devices) re-attach through the normal
// H_Connect machinery at the normal message cost.
type ST struct{}

// maxRepairTries bounds consecutive failed repair rounds (the live set
// still partitioned after a repair completes). Discovery keeps
// accumulating links while the run continues, so a retry sees a fresh
// snapshot; after the budget the survivors are genuinely disconnected.
const maxRepairTries = 3

// Name implements Protocol.
func (ST) Name() string { return "ST" }

// Run implements Protocol.
func (ST) Run(env *Env) Result {
	cfg := env.Cfg
	h := newHealer(env, "ST", log2ceil(cfg.N))
	t := &stTree{
		h:             h,
		nextMerge:     units.Slot(cfg.DiscoveryPeriods * cfg.PeriodSlots),
		mergeInterval: units.Slot(cfg.MergeEveryPeriods * cfg.PeriodSlots),
	}
	if h.flt != nil {
		t.rebooted = make([]bool, cfg.N)
	}
	t.gcfg = ghs.Config{
		// Charge the merge-protocol traffic to the RACH2 counters.
		OnMessage: func(kind ghs.MessageKind, from, to, transmissions int) {
			c := &h.res.Counters
			c.Tx[rach.RACH2] += uint64(transmissions)
			c.TxBytes[rach.RACH2] += uint64(transmissions) * rach.PayloadBytes(ghsKind(kind))
			c.Rx[rach.RACH2]++
		},
		LinkTrials: env.linkTrials,
		OnMerge:    t.adopt,
		// A candidate edge across an active split cannot complete its
		// H_Connect handshake, so the protocol skips it (and defers,
		// rather than completes, a fragment with no other choice).
		LinkBlocked: h.linkBlocked,
	}

	// Coupling rule: a PS couples when sender and receiver are in the
	// same fragment (the tree's merge floods give every member that
	// knowledge). PSs are broadcast regardless, so listening to all
	// same-fragment pulses costs no extra messages — and it keeps a
	// subtree branch correctable by any majority pulse rather than only
	// by its single boundary neighbour, which matters under clock drift.
	// Cross-fragment pulses never couple: each fragment keeps its own
	// rhythm until H_Connect merges (and phase-adopts) it.
	//
	// The rule reads a fragment-id snapshot refreshed after every merge
	// step rather than querying the tree's union-find directly: fragments
	// only change between slots, and the immutable snapshot lets the slot
	// engine's delivery workers evaluate the rule concurrently (the
	// union-find compresses paths on lookup, so it is not a shared read).
	couples := func(sender, receiver int) bool {
		if cfg.MeshCoupling {
			return true // ablation B: fragment gating removed
		}
		if t.frag == nil {
			return false // pure discovery: no coupling yet
		}
		return t.frag[sender] == t.frag[receiver]
	}
	// Telemetry probe: fragment count from the merge protocol's
	// union-find (every device is its own fragment until discovery ends),
	// restricted to fragments with a live member under a fault plan.
	h.eng.fragFn = func() int {
		if h.flt == nil {
			if t.tree == nil {
				return cfg.N
			}
			return t.tree.Fragments()
		}
		return liveFragments(env, t.frag)
	}

	if rst := h.rst; rst != nil {
		ss := rst.ST
		h.resume(ss.Result, ss.Detector)
		if ss.Tree != nil {
			t.tree = ghs.RestoreProtocol(t.gcfg, *ss.Tree)
		}
		if ss.Repair != nil {
			t.repair = ghs.RestoreProtocol(t.gcfg, *ss.Repair)
		}
		if ss.Frag != nil {
			t.frag = append([]int(nil), ss.Frag...)
		}
		t.nextMerge = units.Slot(ss.NextMerge)
		if fs := ss.Faults; fs != nil && h.flt != nil {
			h.restoreWatch(fs.LastFired, fs.PresumedDead, fs.Synced, fs.EpisodeOpen, fs.EpisodeStart, fs.NextWatch)
			copy(t.rebooted, fs.Rebooted)
			t.repairArmed, t.awaitRepair, t.repairTries = fs.RepairArmed, fs.AwaitRepair, fs.RepairTries
		}
	}
	return h.run(t, couples)
}

// stTree is the proposed protocol's topology: Borůvka-style fragment
// merging, then preseeded repair rounds when faults break the tree.
type stTree struct {
	h      *healer
	gcfg   ghs.Config    // merge-protocol hooks; Neighbors filled per protocol
	tree   *ghs.Protocol // nil until discovery completes
	repair *ghs.Protocol // non-nil while a self-healing round runs
	frag   []int         // fragment ids, refreshed after every merge step

	nextMerge     units.Slot
	mergeInterval units.Slot

	// Fault-layer state.
	rebooted    []bool // crashed-then-recovered: pre-crash tree edges are stale
	repairArmed bool   // a repair round is scheduled
	awaitRepair bool   // membership changed under a built tree; gate run exit
	repairTries int
	repaired    bool // a repair completed this slot (healed reports it)
}

// adopt is the sync-word phase adoption (MEMFIS-style, the paper's ref
// [14]): the fragment whose head is replaced aligns its clocks to the
// surviving fragment's boundary node through the H_Connect exchange; the
// decision flood (already charged) carries the adjustment down the
// subtree. Tree coupling then keeps the merged fragment locked. It fires
// only inside tree.Step()/repair.Step(), at the merge boundary being
// executed. Dead members are skipped — a corpse has no clock to adopt with,
// and touching its frozen oscillator would diverge the lazy engine from
// slot-by-slot stepping.
func (t *stTree) adopt(edge graph.Edge, winnerBoundary int, adopting []int) {
	h, env := t.h, t.h.env
	slot := h.slot
	if env.Alive[winnerBoundary] {
		h.eng.materialize(winnerBoundary, slot)
		ref := env.Devices[winnerBoundary].Osc.Phase
		for _, m := range adopting {
			if !env.Alive[m] {
				continue
			}
			h.eng.materialize(m, slot)
			env.Devices[m].Osc.Phase = ref
			h.eng.phaseWritten(m, slot)
		}
	}
	h.env.Cfg.emit(trace.Event{Slot: slot, Kind: trace.KindMerge, A: edge.U, B: edge.V})
}

// due reports whether merge rounds still run: the initial build, or a
// scheduled repair.
func (t *stTree) due() bool { return t.tree == nil || !t.tree.Done() || t.repairArmed }

func (t *stTree) timer() (units.Slot, bool) { return t.nextMerge, t.due() }

// round runs a merge phase at the period boundary once discovery is done;
// the same cadence drives self-healing repair rounds.
func (t *stTree) round(slot units.Slot) bool {
	if slot < t.nextMerge || !t.due() {
		return false
	}
	h := t.h
	t.nextMerge = slot + t.mergeInterval
	if t.tree == nil || !t.tree.Done() {
		if t.tree == nil {
			gcfg := t.gcfg
			gcfg.Neighbors = snapshotNeighbors(h.env, nil)
			t.tree = ghs.NewProtocol(gcfg)
		}
		t.tree.Step()
		t.frag = t.tree.FragmentIDs(t.frag)
		if !t.tree.Done() || t.tree.Fragments() <= 1 {
			return false
		}
		if h.flt == nil {
			// The discovered graph is disconnected: network-wide
			// synchrony is impossible; report non-convergence instead of
			// burning the slot budget.
			return true
		}
		// Under a fault plan only a *live* partition with nothing left
		// to change it is hopeless — fragments of dead devices re-attach
		// via repair when (if) they recover, and a scheduled network
		// split must have lifted (and its casualties been heard again)
		// before disconnection is terminal.
		return liveFragments(h.env, t.frag) > 1 && !t.busy() && h.quiet(slot)
	}

	// Self-healing round: a fresh merge protocol over the live devices'
	// discovered links, preseeded with the surviving tree edges (stale
	// edges of dead, presumed and rebooted devices excluded) so only the
	// orphaned pieces pay re-attachment traffic.
	if t.repair == nil {
		gcfg := t.gcfg
		gcfg.Neighbors = snapshotNeighbors(h.env, h.presumedDead)
		t.repair = ghs.NewProtocol(gcfg)
		t.repair.Preseed(survivingEdges(h.env, t.tree, h.presumedDead, t.rebooted))
	}
	t.repair.Step()
	t.frag = t.repair.FragmentIDs(t.frag)
	if !t.repair.Done() {
		return false
	}
	if liveFragments(h.env, t.frag) == 1 {
		t.tree, t.repair = t.repair, nil
		t.repairArmed, t.awaitRepair = false, false
		for i := range t.rebooted {
			t.rebooted[i] = false
		}
		t.repaired = true
		return false
	}
	// Live set still partitioned: drop this attempt and retry on a fresh
	// snapshot — ongoing PS traffic may discover the missing link. After
	// the budget the survivors are genuinely disconnected, unless pending
	// fault activity, an unexpired network split or a partition casualty
	// not yet heard again may still change the picture; then stand down
	// until it does (the un-presume path re-arms).
	t.repair = nil
	t.repairTries++
	if t.repairTries >= maxRepairTries {
		if h.quiet(slot) {
			return true
		}
		t.repairArmed = false
	}
	return false
}

// armRepair schedules a repair round on the merge cadence, re-aiming the
// cadence if it went stale after the initial build: repair rounds must run
// at slots the engine provably steps.
func (t *stTree) armRepair(slot units.Slot) {
	if !t.repairArmed {
		t.repairArmed, t.repairTries = true, 0
	}
	if t.nextMerge <= slot {
		t.nextMerge = slot + t.mergeInterval
	}
}

func (t *stTree) applied(slot units.Slot, ap appliedFaults) {
	for _, d := range ap.recovered {
		t.rebooted[d] = true
		if t.tree != nil {
			t.awaitRepair = true
			t.armRepair(slot)
		}
	}
	if len(ap.crashed) > 0 && t.tree != nil {
		t.awaitRepair = true
	}
}

// suspect arms a repair round whenever a verdict changes: presumed devices
// are routed around, and un-presumed ones re-attach.
func (t *stTree) suspect(slot units.Slot, presumed []int) {
	t.armRepair(slot)
	if t.tree != nil {
		t.awaitRepair = true
	}
}

func (t *stTree) healed() bool {
	done := t.repaired
	t.repaired = false
	return done
}

func (t *stTree) settled() bool {
	return t.tree != nil && t.tree.Done() && t.repair == nil && !t.repairArmed
}

func (t *stTree) busy() bool { return t.awaitRepair || t.repairArmed }

func (t *stTree) capture(st *snapshot.State) {
	h := t.h
	st.ST = &snapshot.STState{
		Result:    resultState(&h.res),
		Detector:  h.det.State(),
		NextMerge: int64(t.nextMerge),
	}
	if t.tree != nil {
		ts := t.tree.State()
		st.ST.Tree = &ts
	}
	if t.repair != nil {
		ps := t.repair.State()
		st.ST.Repair = &ps
	}
	if t.frag != nil {
		st.ST.Frag = append([]int(nil), t.frag...)
	}
	if h.flt != nil {
		st.ST.Faults = &snapshot.STFaultState{
			LastFired:    append([]int64(nil), h.lastFired...),
			PresumedDead: append([]bool(nil), h.presumedDead...),
			Rebooted:     append([]bool(nil), t.rebooted...),
			RepairArmed:  t.repairArmed,
			AwaitRepair:  t.awaitRepair,
			RepairTries:  t.repairTries,
			Synced:       h.synced,
			EpisodeOpen:  h.episodeOpen,
			EpisodeStart: int64(h.episodeStart),
			NextWatch:    int64(h.nextWatch),
		}
	}
}

func (t *stTree) finish(res *Result) {
	if t.tree != nil {
		tr := t.tree.Result()
		res.TreeEdges = tr.Edges
		res.TreePhases = tr.Phases
		res.TreeWeight = graph.TotalWeight(tr.Edges)
	}
}

// ghsKind maps the merge protocol's message kinds onto the PS framing for
// byte accounting.
func ghsKind(k ghs.MessageKind) rach.Kind {
	switch k {
	case ghs.MsgReport:
		return rach.KindReport
	case ghs.MsgDecision:
		return rach.KindDecision
	case ghs.MsgConnect:
		return rach.KindConnect
	default:
		return rach.KindAccept
	}
}

// snapshotNeighbors converts the devices' neighbour tables into the merge
// protocol's symmetric neighbour lists, each in peer-id order. A pair is a
// link when either end heard the other (a link heard one way is still
// usable; the H_Connect handshake confirms it). Its weight is the mean
// observed RSSI in dBm, averaged over the two directions when both were
// heard — monotone in PS strength, exactly the paper's "weight of edge is
// directly proportional to PS strength observed by nodes". A non-nil
// presumed restricts the lists to devices that are powered on and not
// presumed dead by the watchdog: a repair round must not route
// re-attachment through a corpse.
func snapshotNeighbors(env *Env, presumed []bool) [][]ghs.Neighbor {
	usable := func(i int) bool { return presumed == nil || (env.Alive[i] && !presumed[i]) }
	t := env.nbr
	out := make([][]ghs.Neighbor, len(env.Devices))
	for i := range env.Devices {
		if !usable(i) {
			continue
		}
		for _, x := range t.idx.ByID(i) {
			peer := t.idx.Peer(int(x))
			if !usable(peer) {
				continue
			}
			sum, cnt := 0.0, 0
			for _, e := range [2]int{int(x), t.idx.Mirror(int(x))} {
				if t.heard(e) {
					sum += float64(t.mean(e))
					cnt++
				}
			}
			if cnt > 0 {
				out[i] = append(out[i], ghs.Neighbor{Peer: peer, Weight: sum / float64(cnt)})
			}
		}
	}
	return out
}

// survivingEdges filters the broken tree down to the edges both of whose
// endpoints are live, not presumed dead and not rebooted — the forest a
// repair round inherits for free. A rebooted device's pre-crash edges are
// stale (its subtree re-attached elsewhere during the downtime), so it
// re-joins from scratch instead.
func survivingEdges(env *Env, tree *ghs.Protocol, presumed, rebooted []bool) []graph.Edge {
	var out []graph.Edge
	for _, e := range tree.Result().Edges {
		if !env.Alive[e.U] || !env.Alive[e.V] ||
			presumed[e.U] || presumed[e.V] ||
			rebooted[e.U] || rebooted[e.V] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// compile-time interface checks
var (
	_ Protocol = FST{}
	_ Protocol = ST{}
)
