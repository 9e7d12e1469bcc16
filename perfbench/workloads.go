package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// workload is one set of inputs the benchmark runs. Every simulation runs on
// the calling goroutine: the benchmark has no sweep pool, and Workers, Shards
// and Engine keep their zero values, so the program's defaults decide how a
// run is stepped and a later engine change is measured without editing this
// file. Workloads set model parameters only.
type workload struct {
	name string
	// sizes are the device counts; reps the deployments per size and round.
	sizes []int
	reps  int
	// period is the firefly period T in slots (0 keeps Table I's 100).
	period int
	// delayed names the protocols that run under the bounded-asynchrony
	// plan (with JumpsPerCycle 1, which Validate requires under a plan).
	delayed map[string]bool
	// crashAt is the slot at which the top 20% of device ids crash, per
	// protocol name (none when absent).
	crashAt map[string]units.Slot
	// checkpointEvery arms checkpoints on every run; resumeAt names the
	// protocol whose run is resumed once, and from which checkpoint slot.
	checkpointEvery units.Slot
	resumeAt        map[string]units.Slot
	// protocols run on every deployment, in order.
	protocols []core.Protocol
	// geometry shares one GeometryCache per deployment between protocols,
	// as experiments.RunSweep does.
	geometry bool
	// checkRatio asserts ST/FST mean convergence below 1 from this size on
	// (0 disables the check).
	checkRatio int
}

var workloads = []*workload{
	// The Fig. 3/4 sweep at Table I density: every slot is stepped, and
	// transport planning and FST's O(n) brightness scans dominate.
	{
		name:  "fig3-dense",
		sizes: []int{50, 100, 200, 400}, reps: 1,
		protocols: []core.Protocol{core.FST{}, core.ST{}},
		geometry:  true, checkRatio: 200,
	},
	// ST at n=2000 with the LTE ProSe discovery period: a large cold set-up,
	// and almost every stepped slot is inert.
	{
		name:  "prose-sparse",
		sizes: []int{2000}, reps: 1, period: 10240,
		protocols: []core.Protocol{core.ST{}},
	},
	// The only workload with asyncnet, faults and snapshot: n=400 with a 20%
	// crash and checkpoints encoded, decoded and resumed, ST also under T/4
	// delay with reordering and duplication.
	{
		name:  "async-recovery",
		sizes: []int{400}, reps: 1,
		// FST stays in lockstep: under the plan its convergence time has a
		// tail of 100k+ slots on some deployments (2 of 12 at n=400), which
		// no seed-driven benchmark can absorb. The crashes land after
		// convergence on almost every deployment (FST ~3650 slots, ST
		// 1.5k-2.4k under the plan), so a run's length follows the fault
		// schedule rather than the spread of convergence times.
		delayed: map[string]bool{"ST": true},
		crashAt: map[string]units.Slot{"FST": 4500, "ST": 4000},
		// FST is the run resumed: resuming ST under the plan after the
		// crash is not yet bit-identical on every deployment (see README).
		checkpointEvery: 2000,
		resumeAt:        map[string]units.Slot{"FST": 4000},
		protocols:       []core.Protocol{core.FST{}, core.ST{}},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deploymentSeed derives the k-th deployment's simulator seed from the
// workload seed; distinct workload seeds never share a deployment.
func deploymentSeed(seed int64, k int) int64 { return seed*1000 + int64(k) + 1 }

// config is the model configuration of one run of proto: Table I plus the
// workload's period, asynchrony plan and crash schedule.
func (w *workload) config(n int, seed int64, proto string) core.Config {
	cfg := core.PaperConfig(n, seed)
	if w.period > 0 {
		cfg.PeriodSlots = w.period
	}
	if w.delayed[proto] {
		cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: cfg.PeriodSlots / 4,
			Reorder: true, DupRate: 0.01}
		cfg.JumpsPerCycle = 1 // Validate requires a jump budget under a plan
	}
	if at, ok := w.crashAt[proto]; ok {
		plan := &faults.Plan{Version: faults.PlanSchema}
		for d := n - n/5; d < n; d++ {
			plan.Actions = append(plan.Actions, faults.Action{Kind: faults.KindCrash, At: int64(at), Device: d})
		}
		cfg.Faults = plan
	}
	cfg.CheckpointEvery = w.checkpointEvery
	return cfg
}

// pin is the pinned output of one run.
type pin struct {
	converged bool
	slots     units.Slot
	tx        uint64
}

func pinOf(r core.Result) pin { return pin{r.Converged, r.ConvergenceSlots, r.Counters.TotalTx()} }

// record is one checked protocol run.
type record struct {
	key        string
	res        core.Result
	collisions uint64
	stats      *telemetry.RunStatsReport // traced rounds only
	fails      []string
}

func (rec *record) fail(format string, args ...any) {
	rec.fails = append(rec.fails, fmt.Sprintf(format, args...))
}

// round executes a workload once and keeps what its metrics need.
type round struct {
	w    *workload
	idx  int
	pins map[string]pin
	tr   *tracer // nil when untraced
	root int

	records []*record
	setup   time.Duration // total time inside core.NewEnv
	resume  time.Duration // total time of resumed runs
	// Geometry-cache counters summed over the round's caches.
	geoHits, geoMisses uint64
	// Checkpoint hook totals.
	checkpoints    int
	snapshotBytes  int
	encode, decode time.Duration

	curRun   int      // span id of the protocol run in progress
	curID    int      // run id (record index) of the run in progress
	hookErrs []string // hook failures, charged to the run in progress
}

// runRound executes round idx of w for the workload seed: each size's
// deployments k = idx*reps ... idx*reps+reps-1, so successive rounds of one
// run cover different deployments and the run's median round does not hang
// on one deployment's convergence time. tr, when non-nil, receives spans and
// turns on engine runstats for every run.
func runRound(w *workload, seed int64, idx int, pins map[string]pin, tr *tracer) *round {
	r := &round{w: w, idx: idx, pins: pins, tr: tr, curRun: -1}
	r.root = tr.begin("round", -1, -1)
	defer tr.end(r.root)
	for _, n := range w.sizes {
		for k := idx * w.reps; k < (idx+1)*w.reps; k++ {
			ds := deploymentSeed(seed, k)
			var geom *core.GeometryCache
			if w.geometry {
				geom = core.NewGeometryCache()
			}
			for _, p := range w.protocols {
				r.deployment(n, ds, p, geom)
			}
			if geom != nil {
				h, m := geom.Stats()
				r.geoHits += h
				r.geoMisses += m
			}
		}
	}
	if w.checkRatio > 0 {
		r.checkConvergenceRatio()
	}
	return r
}

func runKey(w *workload, proto string, n int, seed int64) string {
	return fmt.Sprintf("%s/%s/n=%d/seed=%d", w.name, proto, n, seed)
}

// deployment runs one protocol on one deployment; a run named in resumeAt
// is then resumed from that checkpoint and the resumed result compared with
// the uninterrupted one.
func (r *round) deployment(n int, seed int64, p core.Protocol, geom *core.GeometryCache) {
	cfg := r.w.config(n, seed, p.Name())
	cfg.Geometry = geom
	resumeAt, resume := r.w.resumeAt[p.Name()]
	var resumeState *snapshot.State
	if cfg.CheckpointEvery > 0 {
		cfg.OnCheckpoint = func(st *snapshot.State) {
			if dec := r.roundTrip(st); dec != nil && resume && units.Slot(st.Slot) == resumeAt {
				resumeState = dec
			}
		}
	}
	key := runKey(r.w, p.Name(), n, seed)
	base := r.run(key, cfg, p)
	if !resume {
		return
	}
	if resumeState == nil {
		base.fail("no checkpoint at slot %d to resume from", resumeAt)
		return
	}
	rcfg := cfg
	rcfg.OnCheckpoint = nil
	rcfg.Resume = resumeState
	t0 := time.Now()
	resumed := r.run(key+"/resume", rcfg, p)
	r.resume += time.Since(t0)
	if len(resumed.fails) == 0 && !reflect.DeepEqual(resumed.res, base.res) {
		resumed.fail("resumed result differs from the uninterrupted run: %v vs %v", resumed.res, base.res)
	}
}

// roundTrip encodes and decodes one checkpoint, returning the decoded state
// (nil after a failure, which is charged to the run in progress).
func (r *round) roundTrip(st *snapshot.State) *snapshot.State {
	sp := r.tr.begin("snapshot.encode", r.curRun, r.curID)
	t0 := time.Now()
	data, err := snapshot.Encode(st)
	t1 := time.Now()
	r.tr.end(sp)
	if err != nil {
		r.hookErrs = append(r.hookErrs, fmt.Sprintf("encode checkpoint at slot %d: %v", st.Slot, err))
		return nil
	}
	sp = r.tr.begin("snapshot.decode", r.curRun, r.curID)
	dec, err := snapshot.Decode(data)
	t2 := time.Now()
	r.tr.end(sp)
	r.checkpoints++
	r.snapshotBytes += len(data)
	r.encode += t1.Sub(t0)
	r.decode += t2.Sub(t1)
	if err != nil {
		r.hookErrs = append(r.hookErrs, fmt.Sprintf("decode checkpoint at slot %d: %v", st.Slot, err))
		return nil
	}
	return dec
}

// run builds the env, runs the protocol and checks its output. A resumed
// run's spans nest under a "snapshot.resume" span.
func (r *round) run(key string, cfg core.Config, p core.Protocol) *record {
	rec := &record{key: key}
	id := len(r.records)
	r.records = append(r.records, rec)
	var rs *telemetry.RunStats
	if r.tr != nil {
		rs = telemetry.NewRunStats()
		cfg.RunStats = rs
	}
	parent := r.root
	if cfg.Resume != nil {
		parent = r.tr.begin("snapshot.resume", r.root, id)
		defer r.tr.end(parent)
	}

	sp := r.tr.begin("setup.newenv", parent, id)
	t0 := time.Now()
	env, err := core.NewEnv(cfg)
	r.setup += time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		rec.fail("NewEnv: %v", err)
		return rec
	}

	r.curRun, r.curID = r.tr.begin("protocol.run", parent, id), id
	rec.res = p.Run(env)
	r.tr.end(r.curRun)
	r.curRun = -1
	rec.collisions = env.Transport.Collisions()
	rec.stats = rs.Report()
	rec.fails = append(rec.fails, r.hookErrs...)
	r.hookErrs = nil

	sp = r.tr.begin("check", parent, id)
	defer r.tr.end(sp)
	if !rec.res.Converged {
		rec.fail("did not converge within %d slots", cfg.MaxSlots)
	}
	if want, ok := r.pins[key]; ok {
		if got := pinOf(rec.res); got != want {
			rec.fail("pinned (converged, slots, tx) = %v, got %v", want, got)
		}
	}
	return rec
}

// checkConvergenceRatio asserts the paper's Fig. 3 claim: from checkRatio
// devices on, ST converges faster than FST on average. A violation fails the
// ST runs of that size.
func (r *round) checkConvergenceRatio() {
	type acc struct {
		fst, st float64
		sts     []*record
	}
	bySize := make(map[int]*acc)
	for _, rec := range r.records {
		n := rec.res.N
		if n < r.w.checkRatio {
			continue
		}
		a := bySize[n]
		if a == nil {
			a = &acc{}
			bySize[n] = a
		}
		switch rec.res.Protocol {
		case "FST":
			a.fst += float64(rec.res.ConvergenceSlots)
		case "ST":
			a.st += float64(rec.res.ConvergenceSlots)
			a.sts = append(a.sts, rec)
		}
	}
	for n, a := range bySize {
		if a.fst > 0 && a.st/a.fst >= 1 {
			for _, rec := range a.sts {
				rec.fail("ST/FST mean convergence %.3f >= 1 at n=%d", a.st/a.fst, n)
			}
		}
	}
}

// failed counts the round's runs with at least one failed check.
func (r *round) failed() int {
	n := 0
	for _, rec := range r.records {
		if len(rec.fails) > 0 {
			n++
		}
	}
	return n
}
