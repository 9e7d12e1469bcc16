package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/oscillator"
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The run engine and its shared scaffolding. One engine drives every run:
// the spatially sharded next-event stepper of shardengine.go. It keeps each
// device's exact next-fire slot in struct-of-arrays storage, grouped into
// grid-cell-aligned shards, and jumps straight to the next slot where
// something can happen — the earliest fire over all shards, or a protocol,
// trace, telemetry, fault, delivery or checkpoint boundary (nextStep). In a
// dense, unsynchronized network that is every slot and only the due shards
// are stepped; once the network synchronizes, pulse-coupled devices fire in
// one wave per period and the slots in between are skipped outright.
//
// Every random draw comes from a stream owned by one device (or a shared
// stream consumed only in sequential steps, in reference order), so no
// result depends on worker scheduling or shard layout. The differential
// suites pin the engine bit for bit against a reference stepper that
// advances every oscillator every slot (the test files' stepSequential).

// task is one contiguous shard of work dispatched to the pool.
type task struct {
	fn     func(worker, lo, hi int)
	worker int
	lo, hi int
	wg     *sync.WaitGroup
}

// workerPool is a persistent pool of goroutines executing range shards.
// Keeping the goroutines alive across slots avoids per-slot spawn cost on
// the hot path; close releases them.
type workerPool struct {
	workers int
	tasks   chan task
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, tasks: make(chan task)}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.worker, t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return p
}

// run splits [0, n) into one contiguous shard per worker (shard w covers
// [w*chunk, (w+1)*chunk)) and blocks until every shard completes — the
// phase barrier. Shard index = worker index, so per-worker accumulators
// concatenated in worker order preserve item order.
func (p *workerPool) run(n int, fn func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		p.tasks <- task{fn: fn, worker: w, lo: lo, hi: hi, wg: &wg}
	}
	wg.Wait()
}

func (p *workerPool) close() { close(p.tasks) }

// stepFunc advances the whole network one slot and returns the devices that
// fired (engine-owned, valid until the next step).
type stepFunc func(e *engine, slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int

// engine drives one protocol run: the sharded next-event stepper, its
// worker pool and the horizon the protocol loops step along. Protocols
// build one engine per run and must close it to release the pool
// goroutines.
type engine struct {
	env     *Env
	pool    *workerPool
	sh      *shardEngine  // nil only when a test oracle steps the run
	oracle  stepFunc      // the test-only reference stepper (Config.oracle)
	service func(int) int // sender -> service tag, hoisted off the hot path

	// flt is the compiled fault schedule (nil disables the layer); the
	// cached fltFilters flag keeps the per-delivery drop check off the hot
	// path for plans with neither outages, partitions nor loss.
	flt        *faults.Injector
	fltFilters bool

	// net is the bounded-asynchrony message queue (nil without an active
	// adversary): every wave's resolved deliveries cycle through it, and
	// slots with a delayed delivery due run a wave even with no local
	// fire. nil costs one pointer check per wave. echo carries absorption
	// echoes between waves; it is allocated on first use and stays nil —
	// like every other adversary cost — on the degenerate path.
	net  *asyncnet.Queue
	echo *echoState

	// rs caches Config.RunStats (nil = disabled): the engine's timing
	// probes cost one nil check each when off, and only monotonic-clock
	// reads when on — never an RNG draw or a reordering, so trajectories
	// are identical either way.
	rs *telemetry.RunStats

	// Telemetry probe hooks, set by the protocol before its loop starts:
	// fragFn reports the current fragment/component count, protoTx the
	// control traffic the protocol charges outside the transport (FST join
	// handshakes, ST RACH2 merges, BS uplink reports). Both are read only
	// at sampling boundaries, never on the per-slot hot path.
	fragFn  func() int
	protoTx func() uint64
	// repairFn reports the protocol's completed self-healing rounds for
	// the telemetry sample (nil = 0).
	repairFn func() int
	// heard, when set, receives every wave's applied delivery list on the
	// loop goroutine once the wave's deliveries settled (the list still
	// names powered-off receivers, which recorded nothing) — the feed FST's
	// join frontier stays current from, whatever the worker count.
	heard func(dels []rach.Delivery)
	// phasesBuf is the reusable alive-phase snapshot sampling reads.
	phasesBuf []float64

	// Slot accounting: activeSlots counts stepSlot calls, totalSlots the
	// span the run covered; the difference is the inert slots the horizon
	// skipped.
	activeSlots uint64
	totalSlots  uint64
	lastSlot    units.Slot

	// Slot-level reused buffers: the merged fired list handed back to the
	// protocol loop (valid until the next stepSlot), and two ping-pong wave
	// buffers — the cascade reads wave w-1 while filling wave w, so two
	// buffers alternate without aliasing.
	firedAll []int
	waves    [2][]int
}

// engineWorkers resolves the Workers knob: <0 means one per CPU, 0/1 means
// a single worker, and the count never exceeds the device count.
func engineWorkers(cfg Config) int {
	w := cfg.Workers
	if w < 0 {
		w = runtime.NumCPU()
	}
	if w > cfg.N {
		w = cfg.N
	}
	if w < 1 {
		w = 1
	}
	return w
}

// newEngine builds the run engine for env. The shard count derives from the
// device count and the resolved worker count (autoShardCount). A worker
// pool is only spun up when there is more than one shard and more than one
// worker, and only when the transport's channel draws are order-independent
// (per-sender streams or a stateless link sampler); shared-stream
// transports run the sharded loops inline, which preserves draw order.
func newEngine(env *Env) *engine {
	env.nbr.alloc()
	e := &engine{env: env, flt: env.Faults, rs: env.Cfg.RunStats, net: env.Net, oracle: env.Cfg.oracle}
	e.fltFilters = e.flt != nil && e.flt.Filters()
	e.service = func(sender int) int { return int(env.Devices[sender].Service) }
	if e.oracle != nil {
		return e
	}
	w := engineWorkers(env.Cfg)
	if w > 1 && env.Transport.SenderStreams == nil && env.Transport.LinkSampler == nil {
		w = 1 // shared-stream draws are order-dependent: inline only
	}
	shards := env.Cfg.shards
	if shards == 0 {
		shards = autoShardCount(env.Cfg.N, w)
	}
	if w > 1 && shards > 1 {
		e.pool = newWorkerPool(w)
	}
	e.sh = newShardEngine(e, shards)
	return e
}

// close releases the pool goroutines (no-op without a pool).
func (e *engine) close() {
	if e.pool != nil {
		e.pool.close()
	}
}

// stepSlot advances the whole network to slot and runs it. Every slot
// between the previous step and slot must be inert — nextStep guarantees
// it — so the skipped span only moves the accounting.
func (e *engine) stepSlot(slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int {
	e.activeSlots++
	var skipped uint64
	if slot > e.lastSlot {
		gap := uint64(slot - e.lastSlot)
		e.totalSlots += gap
		skipped = gap - 1
		e.lastSlot = slot
	}
	var fired []int
	if e.oracle != nil {
		fired = e.oracle(e, slot, couples, opsPerPulse, ops)
	} else {
		fired = e.sh.step(slot, couples, opsPerPulse, ops)
	}
	e.rs.SlotStepped(skipped)
	// Telemetry probes ride behind a nil check so the disabled path stays
	// on the measured steady state. Sampling only reads state the slot
	// already settled — no RNG draw, no reordering — and materializes lazy
	// phases first, which is trajectory-preserving.
	if t := e.env.Cfg.Telemetry; t != nil {
		t.SlotStepped()
		if t.WantsSample(slot) {
			e.materializeAllAt(slot)
			t.Record(e.sample(slot))
		}
	}
	return fired
}

// sample takes one telemetry probe reading at slot: synchrony measures over
// the alive phases, discovery coverage, the protocol's fragment count and
// the cumulative traffic tallies. Runs only at sampling boundaries.
func (e *engine) sample(slot units.Slot) telemetry.Sample {
	env := e.env
	buf := e.phasesBuf[:0]
	for i, d := range env.Devices {
		if env.Alive[i] {
			buf = append(buf, d.Osc.Phase)
		}
	}
	e.phasesBuf = buf
	frags := 0
	if e.fragFn != nil {
		frags = e.fragFn()
	}
	var extra uint64
	if e.protoTx != nil {
		extra = e.protoTx()
	}
	repairs := 0
	if e.repairFn != nil {
		repairs = e.repairFn()
	}
	tc := env.Transport.Counters()
	return telemetry.Sample{
		Slot:        slot,
		OrderParam:  oscillator.OrderParameter(buf),
		PhaseSpread: oscillator.PhaseSpread(buf),
		Links:       env.DiscoveredLinks(),
		Fragments:   frags,
		RachTx:      tc.TotalTx() + extra,
		Collisions:  env.Transport.Collisions(),
		Alive:       len(buf),
		Repairs:     repairs,
	}
}

// slotHorizonNone is nextStep's "no event left" sentinel; it compares
// larger than any run bound, so min-folding protocol timers over it works
// unchanged.
const slotHorizonNone = units.Slot(1<<63 - 1)

// nextStep returns the next slot the engine must step after `after`: the
// earliest of the next oscillator fire over all shards (exact, never a
// bound), a progress-trace or telemetry-sampling boundary, a fault action,
// an in-flight delivery falling due, pending echo retransmissions and a
// checkpoint boundary. Protocols min-fold their own timers (RACH join
// rounds, merge boundaries, the watchdog) on top, so every slot in between is
// provably inert: no device fires, no RNG stream is consumed (only
// non-empty waves draw), and no protocol or trace hook runs. The reference
// oracle steps every slot.
func (e *engine) nextStep(after units.Slot) units.Slot {
	if e.sh == nil {
		return after + 1
	}
	next := units.Slot(e.sh.nextFire())
	cfg := e.env.Cfg
	// Progress-trace and telemetry boundaries are stepped explicitly so
	// their callbacks see materialized phases; the extra stepped slots are
	// inert (no fire, no RNG draw) and visible only in ActiveSlots.
	if cfg.ProgressTrace != nil && cfg.ProgressEvery > 0 {
		if t := (after/cfg.ProgressEvery + 1) * cfg.ProgressEvery; t < next {
			next = t
		}
	}
	if t, ok := cfg.Telemetry.NextSampleAfter(after); ok && t < next {
		next = t
	}
	// The slot a crash/recover/join/jump is scheduled at is stepped even
	// if no fire lands there.
	if e.flt != nil {
		if at, ok := e.flt.NextBoundary(after); ok && at < next {
			next = at
		}
	}
	// Likewise the slot a delayed pulse lands in, and the next slot while
	// the last wave's echo transmitters are still armed (they re-announce
	// at the start of every stepped slot until fresh echoes replace them).
	if e.net != nil {
		if at, ok := e.net.NextDue(after); ok && at < next {
			next = at
		}
		if e.echo != nil && e.echo.pending(0) {
			next = after + 1
		}
	}
	// Checkpoint boundaries fold the same way, so the engine steps — and
	// snapshots — the same slots whatever the shard layout.
	if ce := cfg.CheckpointEvery; ce > 0 {
		if at := (after/ce + 1) * ce; at < next {
			next = at
		}
	}
	return next
}

// wantsCheckpoint reports whether the protocol loop should capture a
// checkpoint after fully processing slot.
func (e *engine) wantsCheckpoint(slot units.Slot) bool {
	ce := e.env.Cfg.CheckpointEvery
	return ce > 0 && e.env.Cfg.OnCheckpoint != nil && slot%ce == 0
}

// runCheckpoint captures a checkpoint and hands it to the OnCheckpoint
// hook, attributing the capture+hook wall time when runstats is enabled.
// The capture runs either way — timing observes it, never gates it.
func (e *engine) runCheckpoint(capture func() *snapshot.State) {
	var t0 time.Time
	if e.rs != nil {
		t0 = time.Now()
	}
	e.env.Cfg.OnCheckpoint(capture())
	if e.rs != nil {
		e.rs.AddCheckpoint(time.Since(t0))
	}
}

// materialize catches device i's lazily advanced oscillator up to slot,
// before a protocol hook reads (or overwrites) its Phase. No-op on the
// reference oracle, whose oscillators are always current.
func (e *engine) materialize(i int, slot units.Slot) {
	if e.sh != nil {
		e.env.Devices[i].Osc.AdvanceTo(int64(slot))
	}
}

// phaseWritten records that a protocol hook overwrote device i's Phase at
// slot (sync-word adoption, the BS timing broadcast): the oscillator is
// rebased there and its scheduled fire recomputed. No-op on the reference
// oracle, where Advance re-detects external writes every slot.
func (e *engine) phaseWritten(i int, slot units.Slot) {
	if e.sh == nil {
		return
	}
	e.env.Devices[i].Osc.Rebase(int64(slot))
	e.sh.refresh(i)
}

// deschedule removes device id from the fire schedule after it powers off.
func (e *engine) deschedule(id int) {
	if e.sh != nil {
		e.sh.drop(id)
	}
}

// rescheduleDevice recomputes device id's scheduled fire from its current
// oscillator state (recovery/join; the oscillator must already be rebased).
func (e *engine) rescheduleDevice(id int) {
	if e.sh != nil {
		e.sh.revive(id)
	}
}

// resyncAll rebases every alive oscillator at slot and rebuilds the fire
// schedule — for the Centralized protocol's timing broadcast, which
// reassigns every phase after an uplink-collection gap the run never
// stepped through.
func (e *engine) resyncAll(slot units.Slot) {
	if e.sh != nil {
		e.sh.resync(slot)
	}
}

// materializeAllAt catches every alive oscillator up to slot without
// stepping it — phase snapshots (env.Phases, post-run inspection) must see
// the same values the reference oracle leaves behind.
func (e *engine) materializeAllAt(slot units.Slot) {
	if e.sh != nil {
		e.sh.materializeAll(slot)
	}
}

// finish closes the run at finalSlot: oscillators materialize and the slot
// accounting extends to the covered span.
func (e *engine) finish(finalSlot units.Slot) {
	e.cover(finalSlot)
	e.materializeAllAt(finalSlot)
}

// cover extends the slot accounting to finalSlot without stepping or
// materializing anything — for a span the run covers with its oscillators
// frozen (the BS uplink collection).
func (e *engine) cover(finalSlot units.Slot) {
	if finalSlot > e.lastSlot {
		e.totalSlots += uint64(finalSlot - e.lastSlot)
		e.rs.SlotsSkipped(uint64(finalSlot - e.lastSlot))
		e.lastSlot = finalSlot
	}
}

// slotStats reports how many slots the engine stepped (active) out of the
// span the run covered (total).
func (e *engine) slotStats() (active, total uint64) { return e.activeSlots, e.totalSlots }
