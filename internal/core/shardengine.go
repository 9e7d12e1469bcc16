package core

import (
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/oscillator"
	"repro/internal/rach"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// The spatially sharded next-event engine. It replaces the per-slot O(n)
// oscillator sweep with per-shard scheduling over struct-of-arrays
// next-fire state (oscillator.Bulk), and lets the run skip every slot in
// which nothing can happen:
//
//   - Devices partition into grid-cell-aligned shards (shardMap), so a
//     shard is a contiguous patch of the deployment and most pulse
//     deliveries land in the sender's own shard.
//   - Each shard's members occupy a contiguous range of the shard-major
//     roster, and their exact next-fire slots live in one contiguous int64
//     array. A shard whose cached minimum is in the future is skipped
//     entirely — no pointer is chased, no oscillator is touched — and the
//     minimum over all shards is the earliest slot any device fires
//     (nextFire), which the engine's horizon jumps to.
//   - Phases stay lazily materialized on their linear segments; AdvanceTo
//     catches a device up when it fires, receives a pulse, or a protocol
//     hook reads it. The engine hooks (materialize, phaseWritten,
//     deschedule, rescheduleDevice, resyncAll) are the discipline this
//     imposes on every protocol.
//
// Parallelism shards by space, not device-index ranges: phase A advances
// due shards concurrently, phase B evaluates senders concurrently (each on
// its own RNG stream), phase C buckets the receiver-sorted delivery list by
// receiver shard so one worker owns every touched receiver exclusively.
// With one worker the same loops run inline.
//
// Bit-identity with the reference stepper holds for any shard and worker
// count because every ordered artifact is restored at merge points:
//
//   - fired lists: within-shard rosters are id-sorted, so per-shard fired
//     lists are id-ascending; cross-shard merges concatenate and sort,
//     reproducing the reference's id-ascending wave order (which drives the
//     shared-stream preamble draws and Tx accounting in PlanBroadcastAll).
//   - pulse application: the delivery list is receiver-ascending (Resolve
//     sorts it), each receiver belongs to exactly one shard, and a
//     receiver's deliveries apply in list order; cascade fires merge back
//     to receiver-ascending order, matching the reference's append order.
//   - RNG: shared-stream draws (preambles) happen only in the sequential
//     plan step, in wave order; per-sender draws come from streams owned by
//     one sender each. Nothing draws in phase A or C, and skipped slots draw
//     nothing at all.
//
// The differential suites (shard_test.go, parallel_test.go,
// eventengine_test.go) pin fires, counters, ops and final phases against
// the reference across protocols, shard counts, fault plans and
// checkpoint/resume.
type shardEngine struct {
	eng  *engine
	env  *Env
	sm   *shardMap
	bulk *oscillator.Bulk
	min  []int64 // per-shard earliest cached next-fire (never above truth)
	// stale marks shards whose cached minimum may be too low: the hook
	// paths (refresh, drop, revive) only ever lower a minimum, so a shard
	// they touched is rescanned before nextFire trusts it. A too-low
	// minimum only costs a wasted scan when stepping, but the horizon must
	// be exact — ActiveSlots may not depend on the shard layout.
	stale []bool

	// Per-shard accumulators, touched only by the worker owning the shard.
	firedMem [][]int  // phase A: fired member indices
	firedSh  [][]int  // phase A: fired device ids (ascending within shard)
	nextSh   [][]int  // phase C: pulse-triggered fires (ascending within shard)
	opsSh    []uint64 // phase C: delivered-pulse counts
	// Per-shard absorption echoes (adversary runs only): transmitter ids
	// and their adopted epochs, collected in phase C and merged into the
	// engine's echoState for the next wave.
	echoSh   [][]int
	echoEpSh [][]units.Slot
	dirtySh  [][]int32 // members whose trajectory changed this slot
	shRuns   [][]int32 // phase C: delivery-run indices per shard

	dirtySlot []units.Slot // per-member dedup stamp (slots start at 1)

	// Reused slot-level buffers.
	active  []int    // shards due this slot
	touched []int    // shards receiving deliveries this wave
	runs    [][2]int // receiver-contiguous delivery runs
	scratch [][]int  // per-worker EvalSender candidate buffers
}

func newShardEngine(e *engine, shards int) *shardEngine {
	env := e.env
	sm := newShardMap(devicePositions(env), shards)
	oscs := make([]*oscillator.Oscillator, len(sm.order))
	for mi, id := range sm.order {
		oscs[mi] = env.Devices[id].Osc
	}
	sh := &shardEngine{
		eng:       e,
		env:       env,
		sm:        sm,
		bulk:      oscillator.NewBulk(oscs),
		min:       make([]int64, sm.count),
		stale:     make([]bool, sm.count),
		firedMem:  make([][]int, sm.count),
		firedSh:   make([][]int, sm.count),
		nextSh:    make([][]int, sm.count),
		opsSh:     make([]uint64, sm.count),
		echoSh:    make([][]int, sm.count),
		echoEpSh:  make([][]units.Slot, sm.count),
		dirtySh:   make([][]int32, sm.count),
		shRuns:    make([][]int32, sm.count),
		dirtySlot: make([]units.Slot, len(sm.order)),
	}
	workers := 1
	if e.pool != nil {
		workers = e.pool.workers
	}
	sh.scratch = make([][]int, workers)
	for mi, id := range sm.order {
		if !env.Alive[id] {
			sh.bulk.Drop(mi)
		}
	}
	sh.recomputeMins()
	e.rs.SetShards(sm.count)
	return sh
}

// devicePositions snapshots the deployment for the shard map.
func devicePositions(env *Env) []geo.Point {
	pts := make([]geo.Point, len(env.Devices))
	for i, d := range env.Devices {
		pts[i] = d.Pos
	}
	return pts
}

// recomputeMins rescans every shard's next-fire array.
func (sh *shardEngine) recomputeMins() {
	for s := 0; s < sh.sm.count; s++ {
		lo, hi := sh.sm.span(s)
		sh.min[s], sh.stale[s] = sh.bulk.NextFireMin(lo, hi), false
	}
}

// markDirty records that device id's trajectory changed at slot; its
// next-fire prediction is refreshed after the cascade settles. Called only
// by the worker owning id's shard.
func (sh *shardEngine) markDirty(id int, slot units.Slot) {
	mi := sh.sm.memberOf[id]
	if sh.dirtySlot[mi] == slot {
		return
	}
	sh.dirtySlot[mi] = slot
	s := sh.sm.shardOf[id]
	sh.dirtySh[s] = append(sh.dirtySh[s], mi)
}

// nextFire returns the earliest next-fire slot over every shard
// (oscillator.NeverFires when nothing will fire), rescanning the shards
// whose cached minimum may be stale first, so the result is exact.
func (sh *shardEngine) nextFire() int64 {
	next := oscillator.NeverFires
	for s, m := range sh.min {
		if sh.stale[s] {
			lo, hi := sh.sm.span(s)
			m = sh.bulk.NextFireMin(lo, hi)
			sh.min[s], sh.stale[s] = m, false
		}
		if m < next {
			next = m
		}
	}
	return next
}

// lower folds member prediction nf into device id's shard minimum — the hook
// paths' update, which may leave the minimum stale-low (see stale).
func (sh *shardEngine) lower(id int, nf int64) {
	s := sh.sm.shardOf[id]
	if nf < sh.min[s] {
		sh.min[s] = nf
	}
	sh.stale[s] = true
}

// refresh recomputes device id's next fire after a protocol phase write
// (the oscillator must already be rebased).
func (sh *shardEngine) refresh(id int) {
	sh.lower(id, sh.bulk.Refresh(int(sh.sm.memberOf[id])))
}

// drop deschedules a powered-off device.
func (sh *shardEngine) drop(id int) {
	sh.bulk.Drop(int(sh.sm.memberOf[id]))
	sh.stale[sh.sm.shardOf[id]] = true
}

// revive reschedules a recovered device (its oscillator must already be
// rebased at the current slot).
func (sh *shardEngine) revive(id int) {
	sh.lower(id, sh.bulk.Revive(int(sh.sm.memberOf[id])))
}

// resync pins every alive oscillator's Phase at slot and rebuilds all
// predictions — the Centralized protocol's timing-broadcast hook.
func (sh *shardEngine) resync(slot units.Slot) {
	for mi, id := range sh.sm.order {
		if !sh.env.Alive[id] {
			sh.bulk.Drop(mi)
			continue
		}
		sh.env.Devices[id].Osc.Rebase(int64(slot))
		if sh.bulk.Dropped(mi) {
			sh.bulk.Revive(mi)
		} else {
			sh.bulk.Refresh(mi)
		}
	}
	sh.recomputeMins()
}

// materializeAll catches every alive oscillator up to slot.
func (sh *shardEngine) materializeAll(slot units.Slot) {
	sh.bulk.MaterializeAll(0, sh.bulk.Len(), int64(slot))
}

// advanceShard runs phase A for one shard: fire every member due at slot
// and translate member indices to device ids (ascending, since the
// within-shard roster is id-sorted). Fired members are marked dirty; their
// predictions refresh after the cascade.
func (sh *shardEngine) advanceShard(s int, slot units.Slot) {
	// Per-shard busy timing is race-free under the pool: within a phase
	// each shard is processed by exactly one worker, so ShardWorked's
	// writes always target distinct elements.
	rs := sh.eng.rs
	var t0 time.Time
	if rs != nil {
		t0 = time.Now()
	}
	lo, hi := sh.sm.span(s)
	mem := sh.bulk.AdvanceAll(lo, hi, int64(slot), sh.firedMem[s][:0])
	sh.firedMem[s] = mem
	ids := sh.firedSh[s][:0]
	for _, mi := range mem {
		id := int(sh.sm.order[mi])
		ids = append(ids, id)
		sh.markDirty(id, slot)
	}
	sh.firedSh[s] = ids
	if rs != nil {
		rs.ShardWorked(s, time.Since(t0))
	}
}

// deliverShard runs phase C for one shard: apply this wave's deliveries to
// the shard's receivers in delivery-list order. Receivers materialize
// before OnPulse (AdvanceTo cannot cross a fire — a fire due this slot
// already popped in phase A) and are marked dirty only when the pulse
// actually changed their trajectory: a coupling jump moves Phase, an
// absorption fires. Refractory or budget-gated pulses leave the trajectory
// untouched and cost no refresh — the distinction that keeps the dense
// pre-synchronization regime (every device hearing every wave) from
// recomputing n predictions per slot.
func (sh *shardEngine) deliverShard(s int, dels []rach.Delivery, couples couplingRule, slot units.Slot) {
	rs := sh.eng.rs
	var t0 time.Time
	if rs != nil {
		t0 = time.Now()
	}
	env := sh.env
	nbr := env.nbr
	withNet := sh.eng.net != nil
	nx := sh.nextSh[s][:0]
	exIds := sh.echoSh[s][:0]
	exEps := sh.echoEpSh[s][:0]
	var delivered uint64
	for _, ri := range sh.shRuns[s] {
		r := sh.runs[ri]
		for di := r[0]; di < r[1]; di++ {
			del := &dels[di]
			if !env.Alive[del.To] {
				continue // powered-off receivers hear nothing
			}
			recv := env.Devices[del.To]
			nbr.record(del)
			delivered++
			if !couples(del.Msg.From, del.To) {
				continue
			}
			recv.Osc.AdvanceTo(int64(slot))
			prePhase := recv.Osc.Phase
			if recv.Osc.OnPulseSent(int64(del.Msg.Slot), int64(slot)) {
				nx = append(nx, del.To)
				sh.markDirty(del.To, slot)
			} else {
				if recv.Osc.Phase != prePhase {
					sh.markDirty(del.To, slot)
				}
				if withNet {
					if ep, ok := recv.Osc.TakeEcho(); ok {
						// Re-absorption within one wave arrives as a
						// consecutive duplicate; keep the latest epoch.
						if k := len(exIds); k > 0 && exIds[k-1] == del.To {
							exEps[k-1] = units.Slot(ep)
						} else {
							exIds = append(exIds, del.To)
							exEps = append(exEps, units.Slot(ep))
						}
					}
				}
			}
		}
	}
	sh.nextSh[s] = nx
	sh.echoSh[s] = exIds
	sh.echoEpSh[s] = exEps
	sh.opsSh[s] = delivered
	if rs != nil {
		rs.ShardWorked(s, time.Since(t0))
	}
}

// step runs one slot: every slot since the previous step was inert, so the
// due shards' members fire on their lazily advanced trajectories.
func (sh *shardEngine) step(slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int {
	env := sh.env
	e := sh.eng
	s64 := int64(slot)
	rs := e.rs
	var t0 time.Time
	if rs != nil {
		t0 = time.Now()
	}

	// Phase A: advance the shards with a fire due, skip the rest.
	act := sh.active[:0]
	for s := 0; s < sh.sm.count; s++ {
		if sh.min[s] <= s64 {
			act = append(act, s)
		}
	}
	sh.active = act
	fired := e.firedAll[:0]
	if len(act) > 0 {
		if e.pool != nil && len(act) > 1 {
			e.pool.run(len(act), func(_, lo, hi int) {
				for ai := lo; ai < hi; ai++ {
					sh.advanceShard(act[ai], slot)
				}
			})
		} else {
			for _, s := range act {
				sh.advanceShard(s, slot)
			}
		}
		contributing := 0
		for _, s := range act {
			if len(sh.firedSh[s]) > 0 {
				contributing++
				fired = append(fired, sh.firedSh[s]...)
			}
		}
		if contributing > 1 {
			sort.Ints(fired) // restore the reference's id-ascending wave order
		}
	}
	if rs != nil {
		t1 := time.Now()
		rs.AddPhase(telemetry.PhaseAdvance, t1.Sub(t0))
		t0 = t1
	}

	// With a message adversary, slots holding a due in-flight delivery run
	// a wave even with no local fire (the queue's drain order is receiver-
	// contiguous by construction, so phase C's run grouping applies), and
	// absorption echoes collected from one wave transmit with the next.
	wave := fired
	waveBuf := 0
	net := e.net
	ec := e.echo
	if net != nil && ec == nil {
		ec = newEchoState(len(env.Devices))
		e.echo = ec
	}
	echoCur := 0
	for len(wave) > 0 || (net != nil && (ec.pending(echoCur) || net.HasDue(slot))) {
		// Phase B: plan sequentially (shared-stream preamble draws in wave
		// order), evaluate senders in parallel on their own streams, resolve
		// sequentially.
		senders := wave
		if net != nil {
			senders = ec.senders(wave, echoCur)
		}
		var dels []rach.Delivery
		if len(senders) > 0 {
			plan := env.Transport.PlanBroadcastAll(senders, rach.RACH1, rach.KindPulse, e.service, slot)
			if e.pool != nil {
				e.pool.run(len(senders), func(w, lo, hi int) {
					sc := sh.scratch[w]
					for k := lo; k < hi; k++ {
						sc = plan.EvalSender(k, sc)
					}
					sh.scratch[w] = sc
				})
			} else {
				sc := sh.scratch[0]
				for k := range senders {
					sc = plan.EvalSender(k, sc)
				}
				sh.scratch[0] = sc
			}
			dels = plan.Resolve()
			if net != nil {
				ec.stamp(dels, echoCur)
			}
			if e.fltFilters {
				dels = filterFaultDeliveries(e.flt, dels, slot)
			}
		}
		if net != nil {
			dels = net.Cycle(dels, slot)
			ec.reset(1 - echoCur)
		}
		if rs != nil {
			t1 := time.Now()
			rs.AddPhase(telemetry.PhasePlan, t1.Sub(t0))
			t0 = t1
		}

		// Phase C: apply deliveries. The list visits each receiver in one
		// contiguous run — capture resolution sorts it by receiver, a
		// one-sender wave names each receiver once, and the message
		// adversary drains in (receiver, sequence) order — so it buckets
		// into shards, each applied by one worker.
		buf := waveBuf
		waveBuf ^= 1
		next := e.waves[buf][:0]
		if len(dels) > 0 {
			runs := sh.runs[:0]
			for i := 0; i < len(dels); {
				j := i + 1
				for j < len(dels) && dels[j].To == dels[i].To {
					j++
				}
				runs = append(runs, [2]int{i, j})
				i = j
			}
			sh.runs = runs
			touched := sh.touched[:0]
			for ri, r := range runs {
				s := int(sh.sm.shardOf[dels[r[0]].To])
				if len(sh.shRuns[s]) == 0 {
					touched = append(touched, s)
				}
				sh.shRuns[s] = append(sh.shRuns[s], int32(ri))
			}
			sh.touched = touched
			if e.pool != nil && len(touched) > 1 {
				e.pool.run(len(touched), func(_, lo, hi int) {
					for ti := lo; ti < hi; ti++ {
						sh.deliverShard(touched[ti], dels, couples, slot)
					}
				})
			} else {
				for _, s := range touched {
					sh.deliverShard(s, dels, couples, slot)
				}
			}
			contributing := 0
			echoing := 0
			for _, s := range touched {
				if len(sh.nextSh[s]) > 0 {
					contributing++
					next = append(next, sh.nextSh[s]...)
				}
				if len(sh.echoSh[s]) > 0 {
					echoing++
					fill := 1 - echoCur
					ec.ids[fill] = append(ec.ids[fill], sh.echoSh[s]...)
					ec.epochs[fill] = append(ec.epochs[fill], sh.echoEpSh[s]...)
				}
				*ops += sh.opsSh[s] * opsPerPulse
				sh.shRuns[s] = sh.shRuns[s][:0]
			}
			if contributing > 1 {
				sort.Ints(next) // receiver-ascending = the reference's append order
			}
			if echoing > 1 {
				fill := 1 - echoCur
				sortEchoPairs(ec.ids[fill], ec.epochs[fill])
			}
		}
		if e.heard != nil {
			e.heard(dels)
		}
		if rs != nil {
			t1 := time.Now()
			rs.AddPhase(telemetry.PhaseDeliver, t1.Sub(t0))
			t0 = t1
		}
		e.waves[buf] = next
		fired = append(fired, next...)
		wave = next
		echoCur = 1 - echoCur
	}
	e.firedAll = fired

	// Phase D: refresh changed predictions and rescan the minima of every
	// shard that was due or dirtied. A shard neither due nor dirtied kept
	// its trajectory, so its cached minimum still holds.
	for s := 0; s < sh.sm.count; s++ {
		dirty := sh.dirtySh[s]
		if len(dirty) == 0 && sh.min[s] > s64 {
			continue
		}
		for _, mi := range dirty {
			sh.bulk.Refresh(int(mi))
		}
		sh.dirtySh[s] = dirty[:0]
		lo, hi := sh.sm.span(s)
		sh.min[s], sh.stale[s] = sh.bulk.NextFireMin(lo, hi), false
	}
	if rs != nil {
		rs.AddPhase(telemetry.PhaseRefresh, time.Since(t0))
	}

	if env.Cfg.EventTrace != nil {
		for _, f := range fired {
			env.Cfg.EventTrace(trace.Event{Slot: slot, Kind: trace.KindFire, A: f, B: -1})
		}
	}
	if env.Cfg.ProgressTrace != nil && env.Cfg.ProgressEvery > 0 && slot%env.Cfg.ProgressEvery == 0 {
		sh.materializeAll(slot)
		env.Cfg.ProgressTrace(slot)
	}
	return fired
}
