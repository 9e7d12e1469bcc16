package core

import (
	"time"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/oscillator"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// The self-healing run loop FST and ST share. The paper tells the two
// protocols apart only by how they build the spanning tree — parallel
// heavy-edge fragment merging versus sequential one-node-per-RACH joins —
// so everything around the tree is one policy, written once here: stepping,
// the parent-liveness watchdog, disturbance episodes, convergence, run
// exit, checkpoints and result finalisation. A protocol plugs in its
// tree-building strategy as a topology. The liveness policy runs only under
// a fault plan, so the fault-free path stays byte-identical.

// watchdogPeriods is the parent-liveness watchdog's patience: a device
// silent for this many periods is presumed dead. Live oscillators fire at
// least once per two periods, so three cannot false-positive on a
// fault-free run.
const watchdogPeriods = 3

// topology is a protocol's tree-building strategy. applied and suspect run
// only under a fault plan.
type topology interface {
	timer() (next units.Slot, wanted bool) // the next round, folded into the horizon
	round(slot units.Slot) (stop bool)     // a round if due; stop on a hopeless partition
	// applied reacts to fault actions (recovered devices are already
	// un-presumed); suspect to newly presumed devices, or with nil to a
	// presumption lifted.
	applied(slot units.Slot, ap appliedFaults)
	suspect(slot units.Slot, presumed []int)
	healed() bool  // once per completed repair: the tree re-spans the live set
	settled() bool // detected synchrony counts as convergence
	busy() bool    // outstanding repair work holds off exit under a plan
	capture(st *snapshot.State)
	finish(res *Result)
}

// healer is one run of the shared loop.
type healer struct {
	env         *Env
	eng         *engine
	flt         *faults.Injector
	rst         *snapshot.State // nil for a fresh run
	res         Result
	det         *oscillator.SyncDetector
	opsPerPulse uint64

	slot        units.Slot              // being processed; read by hooks inside a round
	linkBlocked func(from, to int) bool // active network split; nil without a plan

	synced bool // the current live set holds detected synchrony

	// Fault-layer state, allocated only when a plan is active.
	lastFired    []int64 // per-device slot of the last heard fire
	presumedDead []bool  // watchdog verdicts
	episodeOpen  bool
	episodeStart units.Slot
	nextWatch    units.Slot
	watchSlots   units.Slot
}

// newHealer prepares a run of proto on env. A resume overlays the saved
// environment state before the engine is built: the engine derives its
// next-fire schedule from the restored oscillator states. The protocol then
// restores its own state and calls run.
func newHealer(env *Env, proto string, opsPerPulse uint64) *healer {
	cfg := env.Cfg
	h := &healer{
		env:         env,
		flt:         env.Faults,
		rst:         resumeFor(cfg, proto),
		res:         Result{Protocol: proto, N: cfg.N},
		det:         oscillator.NewSyncDetector(cfg.N, cfg.SyncWindowSlots, cfg.StableRounds),
		opsPerPulse: opsPerPulse,
		nextWatch:   slotHorizonNone,
	}
	if h.rst != nil {
		restoreEnvState(env, h.rst)
	}
	h.eng = newEngine(env)
	// Telemetry probes: traffic the protocol charges outside the transport
	// (FST join handshakes, ST RACH2 merges) and completed repairs.
	h.eng.protoTx = func() uint64 { return h.res.Counters.TotalTx() }
	h.eng.repairFn = func() int { return h.res.Repairs }
	if h.flt != nil {
		h.lastFired = make([]int64, cfg.N)
		h.presumedDead = make([]bool, cfg.N)
		// Patience widens by the message adversary's delay bound: a pulse
		// sent at slot s arrives by s+netMaxDelay, so only silence beyond
		// watchdogPeriods*T + maxDelay proves the sender stopped
		// transmitting (no false positive under bounded asynchrony).
		h.watchSlots = units.Slot(watchdogPeriods*cfg.PeriodSlots) + cfg.netMaxDelay()
		// The plan may hold devices down from slot 0 (join actions):
		// synchrony is judged over the initially-live set.
		h.det = oscillator.NewSyncDetector(env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
		h.linkBlocked = func(from, to int) bool {
			return h.flt.PartitionBlocked(from, to, int64(h.slot))
		}
	}
	return h
}

// resume overlays the shared portion of a protocol's snapshot section.
func (h *healer) resume(rs snapshot.ResultState, ds oscillator.DetectorState) {
	applyResultState(&h.res, rs)
	h.det.SetState(ds)
}

// restoreWatch overlays the shared portion of a protocol's fault section.
func (h *healer) restoreWatch(lastFired []int64, presumed []bool, synced, episodeOpen bool, episodeStart, nextWatch int64) {
	copy(h.lastFired, lastFired)
	copy(h.presumedDead, presumed)
	h.synced = synced
	h.episodeOpen, h.episodeStart = episodeOpen, units.Slot(episodeStart)
	h.nextWatch = units.Slot(nextWatch)
}

// advance computes the next slot to step after cur: the engine's horizon
// min-folded with the protocol's round timer and the watchdog boundary. The
// loop folds it after every slot; a resume folds it once from the snapshot
// slot, so the restored run steps exactly the slots the uninterrupted run
// would have.
func (h *healer) advance(t topology, cur units.Slot) units.Slot {
	next := h.eng.nextStep(cur)
	if at, ok := t.timer(); ok && at > cur && at < next {
		next = at
	}
	if h.nextWatch < next {
		next = h.nextWatch
	}
	return next
}

// run drives the protocol to convergence, a stop, or the slot cap, and
// returns the finalised result.
func (h *healer) run(t topology, couples couplingRule) Result {
	eng, cfg := h.eng, h.env.Cfg
	defer eng.close()
	start := units.Slot(1)
	if h.rst != nil {
		eng.restoreEngineState(h.rst.Engine)
		start = h.advance(t, units.Slot(h.rst.Slot))
	}
	final := cfg.MaxSlots
	for slot := start; slot <= cfg.MaxSlots; {
		h.slot = slot
		fired := eng.stepSlot(slot, couples, h.opsPerPulse, &h.res.Ops)
		if h.flt != nil {
			h.observe(t, slot, fired)
		}
		if h.round(t, slot) {
			final = slot
			break
		}
		if h.flt != nil && slot >= h.nextWatch {
			if presumed := h.watch(slot); len(presumed) > 0 {
				t.suspect(slot, presumed)
			}
		}
		if t.healed() {
			h.repaired(slot)
		}
		if t.settled() {
			h.detect(slot, fired)
		}
		if h.synced && (h.flt == nil || (!t.busy() && h.quiet(slot))) {
			final = slot
			break
		}

		// Checkpoint after the slot fully settled: a resume continues at
		// slots strictly after it.
		if eng.wantsCheckpoint(slot) {
			eng.runCheckpoint(func() *snapshot.State { return h.capture(t, slot) })
		}
		slot = h.advance(t, slot)
	}
	eng.finish(final)
	t.finish(&h.res)
	finishResult(h.env, eng, &h.res)
	return h.res
}

// round runs the protocol's round after slot, attributing its wall time to
// the runstats protocol phase when enabled.
func (h *healer) round(t topology, slot units.Slot) bool {
	rs := h.eng.rs
	if rs == nil {
		return t.round(slot)
	}
	t0 := time.Now()
	stop := t.round(slot)
	rs.AddPhase(telemetry.PhaseProtocol, time.Since(t0))
	return stop
}

// observe takes in the slot's liveness evidence under a fault plan: the
// fires heard, a partition starting, and the fault actions due.
func (h *healer) observe(t topology, slot units.Slot, fired []int) {
	// A presumed device heard firing after every split has lifted was a
	// partition casualty, not a corpse: its presumption lifts. A crashed
	// device never fires and a recovery lifts the presumption before the
	// first fire, so this is inert for pure crash/recover plans.
	heard := false
	for _, f := range fired {
		h.lastFired[f] = int64(slot)
		if h.presumedDead[f] && !h.flt.PartitionActive(slot) {
			h.presumedDead[f] = false
			heard = true
		}
	}
	if heard {
		t.suspect(slot, nil)
	}
	// A partition starting is fault activity even though no membership
	// action applies: arm the watchdog so the split is observed.
	if h.flt.PartitionActive(slot) {
		h.armWatch(slot)
	}
	if ap := h.eng.applyFaults(slot); ap.any() {
		h.armWatch(slot)
		h.disturb(slot)
		for _, d := range ap.recovered {
			h.presumedDead[d] = false
			h.lastFired[d] = int64(slot)
		}
		t.applied(slot, ap)
	}
}

// armWatch arms the watchdog at the next period boundary, on the chain an
// eagerly armed watchdog would have run on. It stays unarmed until the
// first fault action or partition: live oscillators fire at most two
// periods apart, well inside the ≥3-period patience, so every earlier
// boundary was provably a no-op. Not visiting them keeps the pre-fault
// trajectory — and the ActiveSlots accounting — identical to the
// fault-free run, which lets a fault branch resume from a shared
// fault-free prefix checkpoint.
func (h *healer) armWatch(slot units.Slot) {
	if h.nextWatch == slotHorizonNone {
		period := units.Slot(h.env.Cfg.PeriodSlots)
		h.nextWatch = (slot/period + 1) * period
	}
}

// watch presumes dead, at a watchdog boundary, every device heard at least
// once and silent beyond the patience window, and returns the newly
// presumed. Under an active split the far side stays unhearable although
// the global fired oracle keeps stamping it, so silence alone cannot
// convict it: devices the split separates from the lowest-id live
// unpresumed device (the side both repairs rebuild from) are presumed by
// reachability instead, and each side degrades to its own fragment rather
// than wedging.
func (h *healer) watch(slot units.Slot) []int {
	h.nextWatch = slot + units.Slot(h.env.Cfg.PeriodSlots)
	ref := -1
	if h.flt.PartitionActive(slot) {
		for d := range h.lastFired {
			if h.env.Alive[d] && !h.presumedDead[d] {
				ref = d
				break
			}
		}
	}
	var presumed []int
	for d, lf := range h.lastFired {
		if lf == 0 || h.presumedDead[d] {
			continue
		}
		split := ref >= 0 && d != ref && h.flt.PartitionBlocked(ref, d, int64(slot))
		if slot-units.Slot(lf) > h.watchSlots || split {
			h.presumedDead[d] = true
			presumed = append(presumed, d)
		}
	}
	return presumed
}

// quiet reports that the fault plan can no longer change the picture: no
// action is pending, every partition has lifted, and no powered-on device
// is presumed dead. Only partitions produce that last state, transiently —
// the device is un-presumed at its first fire after the splits lift — so
// while it holds, a "live set still partitioned" verdict is provisional.
func (h *healer) quiet(slot units.Slot) bool {
	if h.flt.Pending() || slot < h.flt.PartitionEnd() {
		return false
	}
	for d, pd := range h.presumedDead {
		if pd && h.env.Alive[d] {
			return false
		}
	}
	return true
}

// disturb re-arms detection over the current live set. An episode opens
// only when detected synchrony was actually disturbed; the next detected
// synchrony closes it (detect).
func (h *healer) disturb(slot units.Slot) {
	if h.synced && !h.episodeOpen {
		h.episodeOpen, h.episodeStart = true, slot
	}
	h.resetDetector()
}

func (h *healer) resetDetector() {
	cfg := h.env.Cfg
	h.synced = false
	h.det = oscillator.NewSyncDetector(h.env.AliveCount(), cfg.SyncWindowSlots, cfg.StableRounds)
}

// repaired accounts a completed self-healing round; re-attachment rewired
// phases, so detection re-arms over the healed membership.
func (h *healer) repaired(slot units.Slot) {
	h.res.Repairs++
	h.env.Cfg.emit(trace.Event{Slot: slot, Kind: trace.KindRepair, A: h.res.Repairs, B: h.env.AliveCount()})
	h.disturb(slot)
}

// detect feeds the slot's fires to the synchrony detector, recording the
// first convergence and closing an open disturbance episode.
func (h *healer) detect(slot units.Slot, fired []int) {
	for range fired {
		if !h.det.OnFire(int64(slot)) || h.synced {
			continue
		}
		h.synced = true
		_, at := h.det.Synced()
		syncedAt := units.Slot(at)
		if !h.res.Converged {
			h.res.Converged = true
			h.res.ConvergenceSlots = syncedAt
			h.env.Cfg.emit(trace.Event{Slot: syncedAt, Kind: trace.KindConverge, A: -1, B: -1})
		}
		if h.episodeOpen {
			h.episodeOpen = false
			h.res.Recoveries++
			h.res.RecoverySlots += syncedAt - h.episodeStart
		}
	}
}

// capture builds a checkpoint at slot: environment and engine state, then
// the protocol's section.
func (h *healer) capture(t topology, slot units.Slot) *snapshot.State {
	st := captureState(h.env, h.eng, slot)
	st.Protocol = h.res.Protocol
	t.capture(st)
	return st
}

// finishResult closes a run's Result once the engine has finished: slot
// accounting, the transport's beacon traffic folded into the protocol's own
// tallies, and the energy, discovery and asynchrony figures. Every protocol
// ends its run here.
func finishResult(env *Env, eng *engine, res *Result) {
	if !res.Converged {
		res.ConvergenceSlots = env.Cfg.MaxSlots
	}
	res.ActiveSlots, res.TotalSlots = eng.slotStats()
	tc := env.Transport.Counters()
	for c := range tc.Tx {
		res.Counters.Tx[c] += tc.Tx[c]
		res.Counters.Rx[c] += tc.Rx[c]
		res.Counters.TxBytes[c] += tc.TxBytes[c]
	}
	res.Energy = energy.LTEDefaults().Charge(res.Counters, env.Cfg.N, res.ConvergenceSlots)
	res.DiscoveredLinks = countDiscoveredLinks(env)
	res.ServiceDiscovery = env.ServiceDiscoveryRatio()
	if env.Net != nil {
		c := env.Net.Counters()
		res.Net = &c
	}
}
