package core

import (
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/units"
)

// FST is the baseline: the basic firefly spanning tree of Chao et al. [17]
// as the paper characterizes it (Fig. 2 shows exactly such a tree). The
// differences to the proposed ST method are the ones the paper names:
//
//   - the tree grows *sequentially* — a single tree rooted at one device
//     attaches the heaviest outgoing link, one node per RACH opportunity —
//     instead of merging all subtrees in parallel (O(n) rounds vs O(log n)
//     phases);
//   - link weights are the *latest single* RSSI sample, because the
//     baseline "did not consider how the signal strength will vary ...
//     when noise or real environment come in picture" (no dB-domain
//     averaging), so fading can mislead the heavy-edge choice;
//   - every processed pulse costs an O(n) brightness scan (the basic
//     Algorithm 3 double loop), versus the ordered structure's O(log n);
//   - a single RACH codec carries everything, so join handshakes ride the
//     same codec as sync pulses.
//
// Like ST, a node joining the tree adopts the tree's phase through the join
// handshake (sync-word adoption), and pulse coupling runs along tree edges
// to hold the structure locked.
//
// Under a fault plan (Config.Faults) the baseline self-heals the only way
// its sequential machinery allows: the watchdog presumes silent members
// dead, the tree is pruned to the component still containing its lowest-id
// live member, and every evicted survivor (and recovered device) re-joins
// one RACH opportunity at a time — the same O(n)-flavoured growth loop,
// now paid again per healing round.
type FST struct{}

// Name implements Protocol.
func (FST) Name() string { return "FST" }

// Run implements Protocol.
func (FST) Run(env *Env) Result {
	cfg := env.Cfg
	res := Result{Protocol: "FST", N: cfg.N}
	det := oscillator.NewSyncDetector(cfg.N, cfg.SyncWindowSlots, cfg.StableRounds)
	opsPerPulse := uint64(cfg.N) // basic Algorithm 3: scan all fireflies

	// A resume overlays the saved environment state before the engine is
	// built — the engine derives its next-fire schedule from the restored
	// oscillator states.
	rst := resumeFor(cfg, "FST")
	if rst != nil {
		restoreEnvState(env, rst)
	}

	inTree := make([]bool, cfg.N)
	var treeEdges []graph.Edge
	joined := 0
	// Tree members couple to every PS heard from other members (one
	// growing fragment); outsiders free-run until they join and adopt.
	couples := func(sender, receiver int) bool {
		return inTree[sender] && inTree[receiver]
	}

	discoverySlots := units.Slot(cfg.DiscoveryPeriods * cfg.PeriodSlots)
	roundSlots := units.Slot(cfg.FstRoundSlots)
	if roundSlots < 1 {
		roundSlots = 1
	}
	nextRound := discoverySlots
	churned := false

	eng := newEngine(env)
	defer eng.close()

	// Fault-layer state, allocated only when a plan is active so the
	// fault-free path stays byte-identical to the seed behaviour. The
	// baseline tracks its tree as parent pointers so the healing prune
	// can find the component that keeps the root.
	flt := env.Faults
	aliveCnt := cfg.N
	joinedLive := 0
	var (
		parent       []int
		lastFired    []units.Slot
		presumedDead []bool
		healing      bool // tree structurally stale; gate run exit until healed
		pruned       bool // a restructure rewired the tree at least once
		synced       bool
		episodeOpen  bool
		episodeStart units.Slot
		nextWatch    units.Slot = slotHorizonNone
		watchSlots   units.Slot
	)
	if flt != nil {
		aliveCnt = env.AliveCount()
		parent = make([]int, cfg.N)
		for i := range parent {
			parent[i] = -1
		}
		lastFired = make([]units.Slot, cfg.N)
		presumedDead = make([]bool, cfg.N)
		// Patience widens by the message adversary's delay bound: a pulse
		// sent at slot s arrives by s+netMaxDelay, so only silence beyond
		// watchdogPeriods*T + maxDelay proves the sender stopped
		// transmitting (no-false-positive under bounded asynchrony).
		watchSlots = units.Slot(cfg.watchdogPeriods()*cfg.PeriodSlots) + cfg.netMaxDelay()
		// nextWatch stays unarmed until the first fault action applies: the
		// watchdog only presumes devices that fired at least once and then
		// fell silent past watchSlots (> one firing interval), so every
		// evaluation before the first action is provably a no-op. Arming
		// lazily keeps the pre-fault trajectory identical to a fault-free
		// run, which is what lets a fault branch resume from a shared
		// fault-free prefix checkpoint.
		// The plan may hold devices down from slot 0 (join actions):
		// synchrony is judged over the initially-live set.
		det = oscillator.NewSyncDetector(aliveCnt, cfg.SyncWindowSlots, cfg.StableRounds)
	}

	// Telemetry probes: the unjoined devices each form their own component
	// beside the single growing tree; join handshakes are charged to the
	// protocol's counters, not the transport's.
	eng.fragFn = func() int {
		if flt == nil {
			if joined == 0 {
				return cfg.N
			}
			return 1 + cfg.N - joined
		}
		if joined == 0 {
			return env.AliveCount()
		}
		return 1 + env.AliveCount() - joinedLive
	}
	eng.protoTx = func() uint64 { return res.Counters.TotalTx() }
	eng.repairFn = func() int { return res.Repairs }

	// advance computes the next slot to step after cur (see ST.Run): the
	// engine's horizon min-folded with the protocol's own timers. The loop
	// folds it after every slot; a resume folds it once from the snapshot
	// slot.
	advance := func(cur units.Slot) units.Slot {
		next := eng.nextStep(cur)
		if joinedLive < aliveCnt && nextRound > cur && nextRound < next {
			next = nextRound
		}
		if nextWatch < next {
			next = nextWatch
		}
		if cfg.FailAt > 0 && !churned && cfg.FailAt > cur && cfg.FailAt < next {
			next = cfg.FailAt
		}
		return next
	}

	startSlot := units.Slot(1)
	if rst != nil {
		fs := rst.FST
		applyResultState(&res, fs.Result)
		det.SetState(fs.Detector)
		copy(inTree, fs.InTree)
		treeEdges = append(treeEdges, fs.TreeEdges...)
		joined = fs.Joined
		joinedLive = joined
		nextRound = units.Slot(fs.NextRound)
		churned = fs.Churned
		if ffs := fs.Faults; ffs != nil && flt != nil {
			aliveCnt = env.AliveCount()
			copy(parent, ffs.Parent)
			for i, v := range ffs.LastFired {
				lastFired[i] = units.Slot(v)
			}
			copy(presumedDead, ffs.PresumedDead)
			joinedLive = ffs.JoinedLive
			healing, pruned = ffs.Healing, ffs.Pruned
			synced = ffs.Synced
			episodeOpen, episodeStart = ffs.EpisodeOpen, units.Slot(ffs.EpisodeStart)
			nextWatch = units.Slot(ffs.NextWatch)
		} else if flt != nil {
			// Fault branch resuming a fault-free prefix snapshot: the
			// prefix run tracked no fault-layer state, but its join log is
			// exact (no pruning ever happened), so the parent pointers the
			// healing prune needs are recoverable from the tree edges.
			// lastFired stays zero — the watchdog ignores never-heard
			// devices, and everyone still alive re-registers within one
			// firing interval, before any plan action can apply (the
			// planner only shares a prefix when the first action leaves
			// that much headroom).
			for _, e := range fs.TreeEdges {
				parent[e.V] = e.U
			}
		}
		eng.restoreEngineState(rst.Engine)
		startSlot = advance(units.Slot(rst.Slot))
	}

	finalSlot := cfg.MaxSlots
	var slot units.Slot

	// Partition awareness: a join handshake cannot cross an active split,
	// and a powered-on device an active split separates from the tree side
	// is unhearable there despite the global fired oracle — the watchdog
	// presumes it by reachability and the prune evicts it, so each side
	// degrades to its own fragment instead of wedging; the re-join loop
	// heals once the split lifts. Both closures read the loop's slot
	// variable; they stay nil (or trivially false) without partitions so
	// existing fault plans keep their exact trajectories.
	var linkBlocked func(from, to int) bool
	if flt != nil {
		linkBlocked = func(from, to int) bool {
			return flt.PartitionBlocked(from, to, int64(slot))
		}
	}
	presumedAlive := func() bool {
		for d, pd := range presumedDead {
			if pd && env.Alive[d] {
				return true
			}
		}
		return false
	}

	for slot = startSlot; slot <= cfg.MaxSlots; {
		fired := eng.stepSlot(slot, couples, opsPerPulse, &res.Ops)
		if flt != nil {
			for _, f := range fired {
				lastFired[f] = slot
				// A presumed device heard firing after the splits lifted
				// was a partition casualty, not a corpse: lift the verdict
				// so the join loop re-attaches it. Inert for pure
				// crash/recover plans (a corpse never fires; a recovery
				// clears its presumption before its first fire).
				if presumedDead[f] && !flt.PartitionActive(slot) {
					presumedDead[f] = false
					if joinedLive < aliveCnt && nextRound <= slot {
						nextRound = slot + roundSlots
					}
				}
			}
			// A partition starting is fault activity even though no
			// membership action applies: arm the watchdog so the split is
			// observed on the usual kT chain.
			if nextWatch == slotHorizonNone && flt.PartitionActive(slot) {
				nextWatch = (slot/units.Slot(cfg.PeriodSlots) + 1) * units.Slot(cfg.PeriodSlots)
			}
			if ap := eng.applyFaults(slot); ap.any() {
				// First applied action arms the watchdog on the same
				// period-boundary chain eager arming would have reached.
				if nextWatch == slotHorizonNone {
					nextWatch = (slot/units.Slot(cfg.PeriodSlots) + 1) * units.Slot(cfg.PeriodSlots)
				}
				if synced && !episodeOpen {
					episodeOpen, episodeStart = true, slot
				}
				synced = false
				aliveCnt = env.AliveCount()
				det = oscillator.NewSyncDetector(aliveCnt, cfg.SyncWindowSlots, cfg.StableRounds)
				restructure := false
				for _, d := range ap.crashed {
					if inTree[d] {
						// The corpse stays in the tree until the
						// watchdog presumes it; only the live-member
						// count drops now.
						joinedLive--
						healing = true
					}
				}
				for _, d := range ap.recovered {
					presumedDead[d] = false
					lastFired[d] = slot
					if inTree[d] {
						// A rebooted member's old attachment is stale:
						// prune it (and anything it orphaned) back out
						// so it re-joins from scratch.
						restructure = true
					}
					healing = true
				}
				if restructure {
					joined, joinedLive = fstRestructure(env, inTree, parent, presumedDead)
					pruned = true
				}
				// Re-aim the join cadence if it went stale while the
				// tree was complete: re-joins must run at slots the
				// engine provably steps.
				if joinedLive < aliveCnt && nextRound <= slot {
					nextRound = slot + roundSlots
				}
			}
		}

		// One join attempt per RACH opportunity.
		if slot >= nextRound && joinedLive < aliveCnt && (flt != nil || joined < cfg.N) {
			nextRound = slot + roundSlots
			if joined == 0 {
				// The root seeds the tree: by convention the live
				// device with the lowest id.
				r := 0
				if flt != nil {
					for !env.Alive[r] {
						r++
					}
				}
				inTree[r] = true
				joined = 1
				joinedLive = 1
			}
			u, v, ok := fstBestOutgoing(env, inTree, flt != nil, presumedDead, linkBlocked, &res.Ops)
			if ok {
				// Join handshake on the single codec: probe and
				// accept, with channel retries.
				trials := uint64(env.linkTrials(u, v) + env.linkTrials(v, u))
				res.Counters.Tx[rach.RACH1] += trials
				res.Counters.TxBytes[rach.RACH1] += trials * rach.PayloadBytes(rach.KindConnect)
				res.Counters.Rx[rach.RACH1] += 2
				inTree[v] = true
				joined++
				joinedLive++
				if parent != nil {
					parent[v] = u
				}
				treeEdges = append(treeEdges, graph.Edge{U: u, V: v, Weight: fstLinkWeight(env, u, v)})
				cfg.emit(trace.Event{Slot: slot, Kind: trace.KindJoin, A: u, B: v})
				// Sync-word adoption: the joiner aligns to the tree.
				eng.materialize(u, slot)
				eng.materialize(v, slot)
				env.Devices[v].Osc.Phase = env.Devices[u].Osc.Phase
				eng.phaseWritten(v, slot)
			}
		}

		// Parent-liveness watchdog: presume silent members dead at period
		// boundaries and prune the tree around them.
		if flt != nil && slot >= nextWatch {
			nextWatch = slot + units.Slot(cfg.PeriodSlots)
			// Reachability reference for split-presume: the lowest-id live
			// unpresumed device, the side the prune keeps (fstRestructure
			// roots there by the same convention).
			ref := -1
			if flt.PartitionActive(slot) {
				for d := range lastFired {
					if env.Alive[d] && !presumedDead[d] {
						ref = d
						break
					}
				}
			}
			restructure := false
			for d, lf := range lastFired {
				if lf == 0 || presumedDead[d] {
					continue
				}
				split := ref >= 0 && d != ref && flt.PartitionBlocked(ref, d, int64(slot))
				if slot-lf > watchSlots || split {
					presumedDead[d] = true
					if inTree[d] {
						restructure = true
						healing = true
					}
				}
			}
			if restructure {
				joined, joinedLive = fstRestructure(env, inTree, parent, presumedDead)
				pruned = true
				if joinedLive < aliveCnt && nextRound <= slot {
					nextRound = slot + roundSlots
				}
			}
		}

		// A healing round completes when the pruned tree has grown back
		// over every live device.
		if flt != nil && healing && joined > 0 && joinedLive == aliveCnt {
			healing = false
			res.Repairs++
			cfg.emit(trace.Event{Slot: slot, Kind: trace.KindRepair, A: res.Repairs, B: aliveCnt})
			if synced && !episodeOpen {
				episodeOpen, episodeStart = true, slot
			}
			synced = false
			det = oscillator.NewSyncDetector(aliveCnt, cfg.SyncWindowSlots, cfg.StableRounds)
		}

		// Post-setup churn (see Config.FailAt).
		if cfg.FailAt > 0 && !churned && slot >= cfg.FailAt && joined == cfg.N {
			env.Fail()
			churned = true
			eng.dropFailed()
			det = oscillator.NewSyncDetector(env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
			synced = false
			for _, id := range cfg.FailSet {
				cfg.emit(trace.Event{Slot: slot, Kind: trace.KindChurn, A: id, B: -1})
			}
		}

		// Synchrony only counts once the tree spans every live device and
		// no healing is outstanding.
		if joined > 0 && joinedLive == aliveCnt && !healing && (flt != nil || joined == cfg.N) {
			for range fired {
				if det.OnFire(int64(slot)) && !synced {
					synced = true
					_, at := det.Synced()
					syncedAt := units.Slot(at)
					if !res.Converged {
						res.Converged = true
						res.ConvergenceSlots = syncedAt
						cfg.emit(trace.Event{Slot: res.ConvergenceSlots, Kind: trace.KindConverge, A: -1, B: -1})
					}
					if episodeOpen {
						episodeOpen = false
						res.Recoveries++
						res.RecoverySlots += syncedAt - episodeStart
					}
				}
			}
		}
		// A run never exits before every scheduled partition has lifted
		// and its casualties have been heard again: a split must be
		// observed healing, not raced past.
		if synced && (flt == nil || (!healing && !flt.Pending() &&
			slot >= flt.PartitionEnd() && !presumedAlive())) {
			finalSlot = slot
			break
		}

		// Checkpoint after the slot fully settled: a resume continues at
		// slots strictly after it. The shared-prefix capture reuses the
		// same path but lands only on a slot the engine stepped anyway
		// (wantsPrefix), so arming it is trajectory- and accounting-neutral.
		capture := func() *snapshot.State {
			st := captureState(env, eng, slot)
			st.Protocol = "FST"
			st.FST = &snapshot.FSTState{
				Result:    resultState(&res),
				Detector:  det.State(),
				InTree:    append([]bool(nil), inTree...),
				TreeEdges: append([]graph.Edge(nil), treeEdges...),
				Joined:    joined,
				NextRound: int64(nextRound),
				Churned:   churned,
			}
			if flt != nil {
				ffs := &snapshot.FSTFaultState{
					Parent:       append([]int(nil), parent...),
					LastFired:    make([]int64, len(lastFired)),
					PresumedDead: append([]bool(nil), presumedDead...),
					JoinedLive:   joinedLive,
					Healing:      healing,
					Pruned:       pruned,
					Synced:       synced,
					EpisodeOpen:  episodeOpen,
					EpisodeStart: int64(episodeStart),
					NextWatch:    int64(nextWatch),
				}
				for i, lf := range lastFired {
					ffs.LastFired[i] = int64(lf)
				}
				st.FST.Faults = ffs
			}
			return st
		}
		if eng.wantsCheckpoint(slot) {
			eng.runCheckpoint(capture)
		}

		next := advance(slot)
		if eng.wantsPrefix(slot, next) {
			cfg.OnPrefix(capture())
		}
		slot = next
	}
	eng.finish(finalSlot)
	if !res.Converged {
		res.ConvergenceSlots = cfg.MaxSlots
	}
	res.ActiveSlots, res.TotalSlots = eng.slotStats()

	tc := env.Transport.Counters()
	res.Counters.Tx[rach.RACH1] += tc.Tx[rach.RACH1]
	res.Counters.Rx[rach.RACH1] += tc.Rx[rach.RACH1]
	res.Counters.TxBytes[rach.RACH1] += tc.TxBytes[rach.RACH1]
	if pruned {
		// Healing rounds made the join log stale; derive the final tree
		// from the surviving parent pointers instead.
		treeEdges = treeEdges[:0]
		for v, u := range parent {
			if inTree[v] && u >= 0 {
				treeEdges = append(treeEdges, graph.Edge{U: u, V: v, Weight: fstLinkWeight(env, u, v)})
			}
		}
	}
	res.TreeEdges = treeEdges
	res.TreeWeight = graph.TotalWeight(treeEdges)
	res.Energy = energy.LTEDefaults().Charge(res.Counters, cfg.N, res.ConvergenceSlots)
	res.DiscoveredLinks = countDiscoveredLinks(env)
	res.ServiceDiscovery = env.ServiceDiscoveryRatio()
	if env.Net != nil {
		c := env.Net.Counters()
		res.Net = &c
	}
	return res
}

// fstLinkWeight returns the latest observed RSSI on the (u,v) link from
// whichever direction holds an observation (u's table first).
func fstLinkWeight(env *Env, u, v int) float64 {
	if s, ok := env.Devices[u].DiscoveredPeers[v]; ok {
		return float64(s.Last)
	}
	if s, ok := env.Devices[v].DiscoveredPeers[u]; ok {
		return float64(s.Last)
	}
	return 0
}

// fstBestOutgoing scans every tree member's neighbour table (and every
// outsider's view toward tree members) for the heaviest edge leaving the
// tree, ranked by the *latest* RSSI sample. The scan work is charged to the
// ops counter — this is the baseline's O(n²)-flavoured per-round cost.
// With liveOnly set (a fault plan is active) powered-off devices neither
// scan nor qualify as endpoints; the same goes for presumed-dead devices
// (nil presumed disables the check), and edges the blocked predicate vetoes
// (an active network split) cannot carry the join handshake. Both extra
// filters are no-ops for fault plans without partitions: a presumed device
// there is really dead, and nothing is ever blocked.
func fstBestOutgoing(env *Env, inTree []bool, liveOnly bool, presumed []bool, blocked func(int, int) bool, ops *uint64) (u, v int, ok bool) {
	best := -1e18
	for i, d := range env.Devices {
		if liveOnly && !env.Alive[i] {
			continue
		}
		if presumed != nil && presumed[i] {
			continue
		}
		*ops += uint64(len(d.DiscoveredPeers))
		for peer, stat := range d.DiscoveredPeers {
			if liveOnly && !env.Alive[peer] {
				continue
			}
			if presumed != nil && presumed[peer] {
				continue
			}
			if blocked != nil && blocked(i, peer) {
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
			w := float64(stat.Last)
			// Deterministic tie-break keeps runs reproducible even
			// in the measure-zero case of equal samples.
			if !ok || w > best || (w == best && (tu < u || (tu == u && tv < v))) {
				best, u, v, ok = w, tu, tv, true
			}
		}
	}
	return u, v, ok
}

// fstRestructure prunes the baseline's join tree after membership changed:
// dead and presumed-dead members leave, and every member no longer
// connected — through live members only — to the component containing the
// lowest-id live member is evicted to re-join from scratch. The kept
// component is re-rooted there (BFS over the surviving parent edges), so
// parent pointers stay consistent for the next prune. Returns the new
// joined/joinedLive counts (equal: every kept member is live).
func fstRestructure(env *Env, inTree []bool, parent []int, presumed []bool) (joined, joinedLive int) {
	n := len(inTree)
	live := func(i int) bool { return inTree[i] && env.Alive[i] && !presumed[i] }
	root := -1
	for i := 0; i < n; i++ {
		if live(i) {
			root = i
			break
		}
	}
	if root < 0 {
		// No live member survives: dissolve the tree entirely; the join
		// loop re-seeds it.
		for i := range inTree {
			inTree[i] = false
			parent[i] = -1
		}
		return 0, 0
	}
	// Undirected adjacency over parent edges whose both endpoints are
	// live members; BFS from the lowest-id live member re-roots the kept
	// component.
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		if u := parent[v]; u >= 0 && live(v) && live(u) {
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	keep := make([]bool, n)
	keep[root] = true
	queue := []int{root}
	newParent := make([]int, n)
	for i := range newParent {
		newParent[i] = -1
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if !keep[y] {
				keep[y] = true
				newParent[y] = x
				queue = append(queue, y)
			}
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] {
			parent[i] = newParent[i]
			joined++
			joinedLive++
		} else {
			inTree[i] = false
			parent[i] = -1
		}
	}
	return joined, joinedLive
}
