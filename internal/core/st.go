package core

import (
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/ghs"
	"repro/internal/graph"
	"repro/internal/oscillator"
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
// Under a fault plan (Config.Faults) the protocol self-heals: a
// parent-liveness watchdog presumes a device dead after it misses
// Config.WatchdogPeriods' worth of expected pulses, and a repair round
// rebuilds the spanning forest over the live set — the surviving subtrees
// are preseeded into a fresh merge protocol for free and the orphaned
// pieces (and recovered devices) re-attach through the normal H_Connect
// machinery at the normal message cost. Convergence is then judged over
// the currently-live set, and each disturbance-to-re-synchrony episode is
// accounted in Result.Recoveries/RecoverySlots.
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
	res := Result{Protocol: "ST", N: cfg.N}
	det := oscillator.NewSyncDetector(cfg.N, cfg.SyncWindowSlots, cfg.StableRounds)
	opsPerPulse := log2ceil(cfg.N)

	// A resume overlays the saved environment state before the engine is
	// built — the engine derives its next-fire schedule from the restored
	// oscillator states.
	rst := resumeFor(cfg, "ST")
	if rst != nil {
		restoreEnvState(env, rst)
	}

	var tree *ghs.Protocol   // nil until discovery completes
	var repair *ghs.Protocol // non-nil while a self-healing round runs
	rach2 := func(kind ghs.MessageKind, from, to, transmissions int) {
		// Charge the merge-protocol traffic to the RACH2 counters.
		res.Counters.Tx[rach.RACH2] += uint64(transmissions)
		res.Counters.TxBytes[rach.RACH2] += uint64(transmissions) * rach.PayloadBytes(ghsKind(kind))
		res.Counters.Rx[rach.RACH2]++
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
	var frag []int
	couples := func(sender, receiver int) bool {
		if cfg.MeshCoupling {
			return true // ablation B: fragment gating removed
		}
		if frag == nil {
			return false // pure discovery: no coupling yet
		}
		return frag[sender] == frag[receiver]
	}

	discoverySlots := units.Slot(cfg.DiscoveryPeriods * cfg.PeriodSlots)
	mergeInterval := units.Slot(cfg.MergeEveryPeriods * cfg.PeriodSlots)
	nextMerge := discoverySlots
	churned := false

	eng := newEngine(env)
	defer eng.close()

	// Fault-layer state, allocated only when a plan is active so the
	// fault-free path stays byte-identical to the seed behaviour.
	flt := env.Faults
	var (
		lastFired    []units.Slot // per-device slot of the last heard fire
		presumedDead []bool       // watchdog verdicts
		rebooted     []bool       // crashed-then-recovered: pre-crash tree edges are stale
		repairArmed  bool         // a repair round is scheduled
		awaitRepair  bool         // membership changed under a built tree; gate run exit
		repairTries  int
		synced       bool // current live set holds detected synchrony
		episodeOpen  bool
		episodeStart units.Slot
		nextWatch    units.Slot = slotHorizonNone
		watchSlots   units.Slot
	)
	if flt != nil {
		lastFired = make([]units.Slot, cfg.N)
		presumedDead = make([]bool, cfg.N)
		rebooted = make([]bool, cfg.N)
		// Patience widens by the message adversary's delay bound: a pulse
		// may arrive netMaxDelay slots after it was sent, so only silence
		// beyond watchdogPeriods*T + maxDelay proves the sender stopped
		// transmitting (no-false-positive under bounded asynchrony).
		watchSlots = units.Slot(cfg.watchdogPeriods()*cfg.PeriodSlots) + cfg.netMaxDelay()
		// The watchdog arms lazily, at the first applied fault action: it
		// can only ever convict after a crash silenced somebody (live
		// oscillators fire at most two periods apart, well inside the
		// ≥3-period patience), so the pre-action period boundaries it used
		// to visit were provably no-ops — and not visiting them keeps the
		// pre-fault trajectory (and the engine's ActiveSlots
		// accounting) identical to the fault-free run, which is what lets a
		// fault branch resume from a fault-free shared-prefix snapshot.
		// The plan may hold devices down from slot 0 (join actions):
		// synchrony is judged over the initially-live set.
		det = oscillator.NewSyncDetector(env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
	}

	// Sync-word phase adoption (MEMFIS-style, the paper's ref [14]): the
	// fragment whose head is replaced aligns its clocks to the surviving
	// fragment's boundary node through the H_Connect exchange; the
	// decision flood (already charged) carries the adjustment down the
	// subtree. Tree coupling then keeps the merged fragment locked. The
	// closure reads the loop's slot variable: it only fires inside
	// tree.Step()/repair.Step() below, at the merge boundary being
	// executed. Dead members are skipped — a corpse has no clock to
	// adopt with, and touching its frozen oscillator would diverge the
	// lazy engine from slot-by-slot stepping.
	var slot units.Slot
	adopt := func(edge graph.Edge, winnerBoundary int, adopting []int) {
		if env.Alive[winnerBoundary] {
			eng.materialize(winnerBoundary, slot)
			ref := env.Devices[winnerBoundary].Osc.Phase
			for _, m := range adopting {
				if !env.Alive[m] {
					continue
				}
				eng.materialize(m, slot)
				env.Devices[m].Osc.Phase = ref
				eng.phaseWritten(m, slot)
			}
		}
		cfg.emit(trace.Event{Slot: slot, Kind: trace.KindMerge, A: edge.U, B: edge.V})
	}

	// Partition awareness for the merge protocol: a candidate edge across an
	// active split cannot complete its H_Connect handshake, so the protocol
	// skips it (and defers, rather than completes, a fragment with no other
	// choice — see ghs.Config.LinkBlocked). The closure reads the loop's
	// slot variable like adopt does; it stays nil without a fault plan so
	// the fault-free protocol object is byte-identical to the seed's.
	var linkBlocked func(from, to int) bool
	if flt := env.Faults; flt != nil {
		linkBlocked = func(from, to int) bool {
			return flt.PartitionBlocked(from, to, int64(slot))
		}
	}

	// presumedAlive reports whether any powered-on device is currently
	// presumed dead — only partitions produce that state (a crash is really
	// dead, a recovery clears its presumption), and it is transient: the
	// device un-presumes at its first fire after the splits lift. While it
	// holds, a "live set still partitioned" verdict is provisional, never
	// terminal.
	presumedAlive := func() bool {
		for d, pd := range presumedDead {
			if pd && env.Alive[d] {
				return true
			}
		}
		return false
	}

	// Telemetry probes: fragment count from the merge protocol's
	// union-find (every device is its own fragment until discovery ends),
	// restricted to fragments with a live member under a fault plan;
	// RACH2 merge traffic is charged to the protocol's counters.
	eng.fragFn = func() int {
		if flt == nil {
			if tree == nil {
				return cfg.N
			}
			return tree.Fragments()
		}
		if frag == nil {
			return env.AliveCount()
		}
		return liveFragments(env, frag)
	}
	eng.protoTx = func() uint64 { return res.Counters.TotalTx() }
	eng.repairFn = func() int { return res.Repairs }

	// advance computes the next slot to step after cur: the engine's
	// horizon min-folded with the protocol's merge cadence, watchdog
	// boundary and churn timer. The loop folds it after every slot; a
	// resume folds it once from the snapshot slot, so the restored run
	// steps exactly the slots the uninterrupted run would have.
	advance := func(cur units.Slot) units.Slot {
		next := eng.nextStep(cur)
		if (tree == nil || !tree.Done() || repairArmed) && nextMerge > cur && nextMerge < next {
			next = nextMerge
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
		ss := rst.ST
		applyResultState(&res, ss.Result)
		det.SetState(ss.Detector)
		gcfg := ghs.Config{OnMessage: rach2, LinkTrials: env.linkTrials, OnMerge: adopt, LinkBlocked: linkBlocked}
		if ss.Tree != nil {
			tree = ghs.RestoreProtocol(gcfg, *ss.Tree)
		}
		if ss.Repair != nil {
			repair = ghs.RestoreProtocol(gcfg, *ss.Repair)
		}
		if ss.Frag != nil {
			frag = append([]int(nil), ss.Frag...)
		}
		nextMerge = units.Slot(ss.NextMerge)
		churned = ss.Churned
		if fs := ss.Faults; fs != nil && flt != nil {
			for i, v := range fs.LastFired {
				lastFired[i] = units.Slot(v)
			}
			copy(presumedDead, fs.PresumedDead)
			copy(rebooted, fs.Rebooted)
			repairArmed, awaitRepair, repairTries = fs.RepairArmed, fs.AwaitRepair, fs.RepairTries
			synced = fs.Synced
			episodeOpen, episodeStart = fs.EpisodeOpen, units.Slot(fs.EpisodeStart)
			nextWatch = units.Slot(fs.NextWatch)
		}
		eng.restoreEngineState(rst.Engine)
		startSlot = advance(units.Slot(rst.Slot))
	}

	finalSlot := cfg.MaxSlots
	for slot = startSlot; slot <= cfg.MaxSlots; {
		fired := eng.stepSlot(slot, couples, opsPerPulse, &res.Ops)
		if flt != nil {
			for _, f := range fired {
				lastFired[f] = slot
				// A presumed-dead device heard firing after every split has
				// lifted was a partition casualty, not a corpse: lift the
				// presumption and schedule a repair so it re-attaches. (A
				// genuinely crashed device never fires, and a recovery
				// clears its presumption explicitly before its first fire,
				// so this path is inert for pure crash/recover plans.)
				if presumedDead[f] && !flt.PartitionActive(slot) {
					presumedDead[f] = false
					if !repairArmed {
						repairArmed, repairTries = true, 0
					}
					if tree != nil {
						awaitRepair = true
					}
					if nextMerge <= slot {
						nextMerge = slot + mergeInterval
					}
				}
			}
			// A partition starting counts as fault activity even though it
			// is not a membership action: arm the watchdog so the split is
			// observed (and the far side presumed) on the usual kT chain.
			if nextWatch == slotHorizonNone && flt.PartitionActive(slot) {
				nextWatch = (slot/units.Slot(cfg.PeriodSlots) + 1) * units.Slot(cfg.PeriodSlots)
			}
			if ap := eng.applyFaults(slot); ap.any() {
				// First fault action: arm the watchdog at the next
				// period boundary (the same kT chain it always ran on).
				if nextWatch == slotHorizonNone {
					nextWatch = (slot/units.Slot(cfg.PeriodSlots) + 1) * units.Slot(cfg.PeriodSlots)
				}
				// Membership or clocks changed: synchrony must be
				// re-established over the new live set. An episode
				// opens only when detected synchrony was actually
				// disturbed — re-convergence closes it below.
				if synced && !episodeOpen {
					episodeOpen, episodeStart = true, slot
				}
				synced = false
				det = oscillator.NewSyncDetector(env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
				for _, d := range ap.recovered {
					rebooted[d] = true
					presumedDead[d] = false
					lastFired[d] = slot
					if tree != nil {
						awaitRepair = true
						if !repairArmed {
							repairArmed, repairTries = true, 0
						}
						// Re-aim the merge cadence if it went stale after
						// the initial build: repair rounds must run at
						// slots the engine provably steps.
						if nextMerge <= slot {
							nextMerge = slot + mergeInterval
						}
					}
				}
				if len(ap.crashed) > 0 && tree != nil {
					awaitRepair = true
				}
			}
		}

		// Merge phases run at period boundaries once discovery is done;
		// the same cadence drives self-healing repair rounds.
		if slot >= nextMerge && (tree == nil || !tree.Done() || repairArmed) {
			if tree == nil || !tree.Done() {
				if tree == nil {
					tree = ghs.NewProtocol(ghs.Config{
						Neighbors:   snapshotNeighbors(env),
						OnMessage:   rach2,
						LinkTrials:  env.linkTrials,
						OnMerge:     adopt,
						LinkBlocked: linkBlocked,
					})
				}
				tree.Step()
				frag = tree.FragmentIDs(frag)
				nextMerge = slot + mergeInterval
				if tree.Done() && tree.Fragments() > 1 {
					if flt == nil {
						// The discovered graph is disconnected:
						// network-wide synchrony is impossible; report
						// non-convergence instead of burning the slot
						// budget.
						finalSlot = slot
						break
					}
					// Under a fault plan only a *live* partition with no
					// pending fault activity or repair is hopeless —
					// fragments of dead devices re-attach via repair
					// when (if) they recover, and a scheduled network
					// split must have lifted (and its casualties been
					// heard again) before disconnection is terminal.
					if liveFragments(env, frag) > 1 && !flt.Pending() && !repairArmed && !awaitRepair &&
						slot >= flt.PartitionEnd() && !presumedAlive() {
						finalSlot = slot
						break
					}
				}
			} else {
				// Self-healing round: a fresh merge protocol over the
				// live devices' discovered links, preseeded with the
				// surviving tree edges (stale edges of dead, presumed
				// and rebooted devices excluded) so only the orphaned
				// pieces pay re-attachment traffic.
				if repair == nil {
					repair = ghs.NewProtocol(ghs.Config{
						Neighbors:   snapshotLiveNeighbors(env, presumedDead),
						OnMessage:   rach2,
						LinkTrials:  env.linkTrials,
						OnMerge:     adopt,
						LinkBlocked: linkBlocked,
					})
					repair.Preseed(survivingEdges(env, tree, presumedDead, rebooted))
				}
				repair.Step()
				frag = repair.FragmentIDs(frag)
				nextMerge = slot + mergeInterval
				if repair.Done() {
					if liveFragments(env, frag) == 1 {
						tree, repair = repair, nil
						repairArmed, awaitRepair = false, false
						for i := range rebooted {
							rebooted[i] = false
						}
						res.Repairs++
						cfg.emit(trace.Event{Slot: slot, Kind: trace.KindRepair, A: res.Repairs, B: env.AliveCount()})
						// Re-attachment rewired phases; re-arm detection
						// over the healed membership.
						if synced && !episodeOpen {
							episodeOpen, episodeStart = true, slot
						}
						synced = false
						det = oscillator.NewSyncDetector(env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
					} else {
						// Live set still partitioned: drop this attempt
						// and retry on a fresh snapshot — ongoing PS
						// traffic may discover the missing link.
						repair = nil
						repairTries++
						if repairTries >= maxRepairTries {
							if !flt.Pending() && slot >= flt.PartitionEnd() && !presumedAlive() {
								finalSlot = slot
								break
							}
							// Pending fault activity, an unexpired network
							// split, or a partition casualty not yet heard
							// again may change the picture; stand down
							// until it does (the un-presume path re-arms).
							repairArmed = false
						}
					}
				}
			}
		}

		// Parent-liveness watchdog: at every period boundary, presume
		// dead any device that has been silent for the full patience
		// window after having been heard at least once (a live oscillator
		// fires at most two periods apart, so the default three-period
		// patience cannot false-positive), and arm a repair round.
		if flt != nil && slot >= nextWatch {
			nextWatch = slot + units.Slot(cfg.PeriodSlots)
			// Under an active partition the far side is unhearable even
			// though the global fired oracle keeps stamping lastFired, so
			// silence alone cannot convict it. Presume instead by
			// reachability: devices an active split separates from the
			// lowest-id live unpresumed device (the side repair rebuilds
			// from) are treated as departed until the split lifts and they
			// are heard again. Graceful degradation, not a wedge: each side
			// keeps its own rhythm and the repair machinery re-joins them.
			ref := -1
			if flt.PartitionActive(slot) {
				for d := range lastFired {
					if env.Alive[d] && !presumedDead[d] {
						ref = d
						break
					}
				}
			}
			for d, lf := range lastFired {
				if lf == 0 || presumedDead[d] {
					continue
				}
				split := ref >= 0 && d != ref && flt.PartitionBlocked(ref, d, int64(slot))
				if slot-lf > watchSlots || split {
					presumedDead[d] = true
					if !repairArmed {
						repairArmed, repairTries = true, 0
					}
					if tree != nil {
						awaitRepair = true
					}
					if nextMerge <= slot {
						nextMerge = slot + mergeInterval
					}
				}
			}
		}

		// Post-setup churn: once the topology is complete, the
		// configured devices power off and convergence is judged over
		// the survivors.
		if cfg.FailAt > 0 && !churned && slot >= cfg.FailAt && tree != nil && tree.Done() {
			env.Fail()
			churned = true
			eng.dropFailed()
			det = oscillator.NewSyncDetector(env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
			synced = false
			for _, id := range cfg.FailSet {
				cfg.emit(trace.Event{Slot: slot, Kind: trace.KindChurn, A: id, B: -1})
			}
		}

		// Synchrony only counts once the forest is complete and no
		// repair is pending: a lone fragment firing together is not
		// network-wide convergence.
		if tree != nil && tree.Done() && repair == nil && !repairArmed {
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
		// A run never exits before every scheduled partition has lifted:
		// a split must be observed healing, not raced past by a fragment
		// that happened to satisfy the detector on its own.
		if synced && (flt == nil || (!awaitRepair && !repairArmed && !flt.Pending() &&
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
			st.Protocol = "ST"
			st.ST = &snapshot.STState{
				Result:    resultState(&res),
				Detector:  det.State(),
				NextMerge: int64(nextMerge),
				Churned:   churned,
			}
			if tree != nil {
				ts := tree.State()
				st.ST.Tree = &ts
			}
			if repair != nil {
				ps := repair.State()
				st.ST.Repair = &ps
			}
			if frag != nil {
				st.ST.Frag = append([]int(nil), frag...)
			}
			if flt != nil {
				fs := &snapshot.STFaultState{
					LastFired:    make([]int64, len(lastFired)),
					PresumedDead: append([]bool(nil), presumedDead...),
					Rebooted:     append([]bool(nil), rebooted...),
					RepairArmed:  repairArmed,
					AwaitRepair:  awaitRepair,
					RepairTries:  repairTries,
					Synced:       synced,
					EpisodeOpen:  episodeOpen,
					EpisodeStart: int64(episodeStart),
					NextWatch:    int64(nextWatch),
				}
				for i, lf := range lastFired {
					fs.LastFired[i] = int64(lf)
				}
				st.ST.Faults = fs
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

	// RACH1 traffic came through the transport; RACH2 was charged by the
	// merge hook.
	tc := env.Transport.Counters()
	res.Counters.Tx[rach.RACH1] += tc.Tx[rach.RACH1]
	res.Counters.Rx[rach.RACH1] += tc.Rx[rach.RACH1]
	res.Counters.TxBytes[rach.RACH1] += tc.TxBytes[rach.RACH1]

	if tree != nil {
		tr := tree.Result()
		res.TreeEdges = tr.Edges
		res.TreePhases = tr.Phases
		res.TreeWeight = graph.TotalWeight(tr.Edges)
	}
	res.Energy = energy.LTEDefaults().Charge(res.Counters, cfg.N, res.ConvergenceSlots)
	res.DiscoveredLinks = countDiscoveredLinks(env)
	res.ServiceDiscovery = env.ServiceDiscoveryRatio()
	if env.Net != nil {
		c := env.Net.Counters()
		res.Net = &c
	}
	return res
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

// snapshotNeighbors converts the devices' discovered RSSI statistics into
// the merge protocol's neighbour tables. The weight is the mean observed
// RSSI in dBm — monotone in PS strength, exactly the paper's "weight of
// edge is directly proportional to PS strength observed by nodes".
func snapshotNeighbors(env *Env) [][]ghs.Neighbor {
	out := make([][]ghs.Neighbor, len(env.Devices))
	for i, d := range env.Devices {
		for peer, stat := range d.DiscoveredPeers {
			out[i] = append(out[i], ghs.Neighbor{Peer: peer, Weight: float64(stat.Mean())})
		}
	}
	return out
}

// snapshotLiveNeighbors is snapshotNeighbors restricted to devices that
// are powered on and not presumed dead by the watchdog — the repair round
// must not route re-attachment through a corpse.
func snapshotLiveNeighbors(env *Env, presumed []bool) [][]ghs.Neighbor {
	out := make([][]ghs.Neighbor, len(env.Devices))
	for i, d := range env.Devices {
		if !env.Alive[i] || presumed[i] {
			continue
		}
		for peer, stat := range d.DiscoveredPeers {
			if !env.Alive[peer] || presumed[peer] {
				continue
			}
			out[i] = append(out[i], ghs.Neighbor{Peer: peer, Weight: float64(stat.Mean())})
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
	_          = device.Service(0)
)
