package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/ghs"
	"repro/internal/oscillator"
	"repro/internal/rach"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/xrand"
)

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// README.md says which end-to-end metric each should move, on which
// workload.
var perLayer = []struct{ name, unit string }{
	{"setup.newenv_s", "s"},
	{"setup.env_heap_mb", "MB"},
	{"setup.geometry_hit_ratio", "ratio"},
	{"engine.advance_s", "s"},
	{"engine.plan_s", "s"},
	{"engine.deliver_s", "s"},
	{"engine.waves", "count"},
	{"engine.stepped_slots", "count"},
	{"engine.checkpoint_s", "s"},
	{"protocol.self_s", "s"},
	{"protocol.ranking_ops", "count"},
	{"protocol.messages", "count"},
	{"protocol.convergence_slots", "slots"},
	{"protocol.merge_rounds", "count"},
	{"transport.wave_us", "us"},
	{"transport.deliveries_per_wave", "count"},
	{"transport.collisions", "count"},
	{"oscillator.onpulse_ns", "ns"},
	{"oscillator.advance_ns", "ns"},
	{"ghs.run_ms", "ms"},
	{"ghs.phases", "count"},
	{"ghs.messages", "count"},
	{"asyncnet.cycle_ns_per_msg", "ns"},
	{"asyncnet.slot_cost_ratio", "ratio"},
	{"asyncnet.slot_ns_plan", "ns"},
	{"asyncnet.slot_ns_lockstep", "ns"},
	{"asyncnet.delayed", "count"},
	{"asyncnet.duplicated", "count"},
	{"asyncnet.rejected", "count"},
	{"asyncnet.peak_inflight", "count"},
	{"faults.repairs", "count"},
	{"faults.recoveries", "count"},
	{"faults.recovery_slots", "slots"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.resume_s", "s"},
	{"host.calib_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// microTime is how long each layer microbenchmark repeats its call.
const microTime = 200 * time.Millisecond

// layerSet collects a traced run's per-layer metrics. A layer the workload
// does not exercise reports 0 and is named in notApplicable.
type layerSet struct {
	metrics       map[string]metric
	notApplicable []string
}

func (l *layerSet) set(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			l.metrics[name] = metric{v, m.unit}
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

func (l *layerSet) na(names ...string) {
	for _, name := range names {
		l.set(name, 0)
		l.notApplicable = append(l.notApplicable, name)
	}
}

// layerMetrics derives the per-layer metrics from the traced round r, whose
// spans tr holds, and times each layer's public calls on the workload's
// largest deployment.
func layerMetrics(w *workload, seed int64, r *round, tr *tracer) *layerSet {
	l := &layerSet{metrics: make(map[string]metric)}

	// Engine phases and protocol totals, summed over the round's runs.
	var phase [telemetry.NumEnginePhases]time.Duration
	var waves uint64
	var measured, capture time.Duration
	var stepped, ops, msgs, conv, merges, collisions, pulses uint64
	var repairs, recoveries, recSlots uint64
	var delayed, duplicated, rejected uint64
	peak := 0
	for _, rec := range r.records {
		if st := rec.stats; st != nil {
			measured += time.Duration(st.MeasuredNanos)
			for _, p := range st.Phases {
				for i := telemetry.EnginePhase(0); i < telemetry.NumEnginePhases; i++ {
					if p.Phase == i.String() {
						phase[i] += time.Duration(p.Nanos)
						if i == telemetry.PhasePlan {
							waves += p.Count
						}
					}
				}
			}
			if c := st.Checkpoint; c != nil {
				capture += time.Duration(c.CaptureNanos)
			}
		}
		res := rec.res
		stepped += res.ActiveSlots
		ops += res.Ops
		msgs += res.Counters.TotalTx()
		pulses += res.Counters.Tx[rach.RACH1]
		conv += uint64(res.ConvergenceSlots)
		merges += uint64(res.TreePhases)
		collisions += rec.collisions
		repairs += uint64(res.Repairs)
		recoveries += uint64(res.Recoveries)
		recSlots += uint64(res.RecoverySlots)
		if c := res.Net; c != nil {
			delayed += c.Delayed
			duplicated += c.Duplicated
			rejected += c.Rejected
			peak = max(peak, c.Peak)
		}
	}
	hookSpans := tr.total("snapshot.encode") + tr.total("snapshot.decode")
	checkpoint := capture - hookSpans

	l.set("setup.newenv_s", tr.total("setup.newenv").Seconds())
	if r.geoHits+r.geoMisses > 0 {
		l.set("setup.geometry_hit_ratio", float64(r.geoHits)/float64(r.geoHits+r.geoMisses))
	} else {
		l.na("setup.geometry_hit_ratio")
	}
	l.set("engine.advance_s", phase[telemetry.PhaseAdvance].Seconds())
	l.set("engine.plan_s", phase[telemetry.PhasePlan].Seconds())
	l.set("engine.deliver_s", phase[telemetry.PhaseDeliver].Seconds())
	l.set("engine.waves", float64(waves))
	l.set("engine.stepped_slots", float64(stepped))
	// The run spans' self time excludes the encode/decode spans nested in
	// them; what remains beside the engine's measured slot time and its
	// state capture is the protocols' own logic.
	l.set("protocol.self_s", (tr.selfTotal("protocol.run") - measured - checkpoint).Seconds())
	l.set("protocol.ranking_ops", float64(ops))
	l.set("protocol.messages", float64(msgs))
	l.set("protocol.convergence_slots", float64(conv))
	l.set("protocol.merge_rounds", float64(merges))
	l.set("transport.collisions", float64(collisions))

	if w.checkpointEvery > 0 && r.checkpoints > 0 {
		per := float64(r.checkpoints)
		l.set("engine.checkpoint_s", checkpoint.Seconds())
		l.set("snapshot.bytes", float64(r.snapshotBytes)/per)
		l.set("snapshot.encode_ms", r.encode.Seconds()*1e3/per)
		l.set("snapshot.decode_ms", r.decode.Seconds()*1e3/per)
		l.set("snapshot.resume_s", r.resume.Seconds())
	} else {
		l.na("engine.checkpoint_s", "snapshot.bytes", "snapshot.encode_ms", "snapshot.decode_ms", "snapshot.resume_s")
	}
	if len(w.crashAt) > 0 {
		l.set("faults.repairs", float64(repairs))
		l.set("faults.recoveries", float64(recoveries))
		l.set("faults.recovery_slots", float64(recSlots))
	} else {
		l.na("faults.repairs", "faults.recoveries", "faults.recovery_slots")
	}

	// Microbenchmarks on the traced round's first deployment of the largest
	// size, with ST's model parameters and no crash.
	n := w.sizes[len(w.sizes)-1]
	ds := deploymentSeed(seed, r.idx*w.reps)
	cfg := w.config(n, ds, "ST")
	cfg.Faults = nil
	rng := rand.New(rand.NewSource(ds))

	env, heapMB := envHeap(cfg)
	l.set("setup.env_heap_mb", heapMB)
	size := 1
	if waves > 0 {
		size = int((pulses + waves/2) / waves)
	}
	waveUS, dels := waveBench(env, size, rng)
	l.set("transport.wave_us", waveUS)
	l.set("transport.deliveries_per_wave", dels)
	l.set("oscillator.onpulse_ns", onPulseBench(cfg, rng))
	l.set("oscillator.advance_ns", advanceBench(cfg, rng))
	ms, g := ghsBench(env)
	l.set("ghs.run_ms", ms)
	l.set("ghs.phases", float64(g.Phases))
	l.set("ghs.messages", float64(g.Messages))

	if cfg.Net != nil {
		l.set("asyncnet.cycle_ns_per_msg", cycleBench(cfg, max(1, int(dels+0.5)), rng))
		plan, lockstep := slotCost(w, r, n, ds)
		l.set("asyncnet.slot_ns_plan", plan)
		l.set("asyncnet.slot_ns_lockstep", lockstep)
		l.set("asyncnet.slot_cost_ratio", plan/lockstep)
		l.set("asyncnet.delayed", float64(delayed))
		l.set("asyncnet.duplicated", float64(duplicated))
		l.set("asyncnet.rejected", float64(rejected))
		l.set("asyncnet.peak_inflight", float64(peak))
	} else {
		l.na("asyncnet.cycle_ns_per_msg", "asyncnet.slot_cost_ratio", "asyncnet.slot_ns_plan",
			"asyncnet.slot_ns_lockstep", "asyncnet.delayed", "asyncnet.duplicated",
			"asyncnet.rejected", "asyncnet.peak_inflight")
	}
	return l
}

// envHeap builds an env and reports the live heap it holds.
func envHeap(cfg core.Config) (*core.Env, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env, err := core.NewEnv(cfg)
	if err != nil {
		panic(err) // the same config already built in the traced round
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return env, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
}

// waveBench times broadcast waves of size random senders through the
// transport's three steps — PlanBroadcastAll, EvalSender per sender,
// Resolve — and returns microseconds and deliveries per wave.
func waveBench(env *core.Env, size int, rng *rand.Rand) (us, dels float64) {
	n := env.Cfg.N
	size = min(max(size, 1), n)
	sets := make([][]int, 64)
	for i := range sets {
		s := rng.Perm(n)[:size]
		sort.Ints(s) // the engines hand senders over in device order
		sets[i] = s
	}
	tr := env.Transport
	svc := func(s int) int { return int(env.Devices[s].Service) }
	var scratch []int
	var total time.Duration
	waves, delivered := 0, 0
	slot := units.Slot(0)
	for total < microTime {
		t0 := time.Now()
		for _, s := range sets {
			slot++
			p := tr.PlanBroadcastAll(s, rach.RACH1, rach.KindPulse, svc, slot)
			for k := range s {
				scratch = p.EvalSender(k, scratch)
			}
			delivered += len(p.Resolve())
		}
		total += time.Since(t0)
		waves += len(sets)
	}
	return total.Seconds() * 1e6 / float64(waves), float64(delivered) / float64(waves)
}

// onPulseBench times Oscillator.OnPulse on oscillators at random phases,
// each receiving one pulse, and returns nanoseconds per call.
func onPulseBench(cfg core.Config, rng *rand.Rand) float64 {
	const m = 4096
	tmpl := make([]oscillator.Oscillator, m)
	for i := range tmpl {
		o := oscillator.New(rng.Float64(), cfg.PeriodSlots, cfg.Coupling)
		o.JumpsPerCycle = cfg.JumpsPerCycle
		tmpl[i] = *o
	}
	work := make([]oscillator.Oscillator, m)
	var total time.Duration
	calls := 0
	for total < microTime {
		copy(work, tmpl)
		t0 := time.Now()
		for i := range work {
			work[i].OnPulse(1)
		}
		total += time.Since(t0)
		calls += m
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// advanceBench times oscillator.Bulk.AdvanceAll over the deployment's device
// count, refreshing the members that fire, and returns nanoseconds per
// device and slot.
func advanceBench(cfg core.Config, rng *rand.Rand) float64 {
	oscs := make([]*oscillator.Oscillator, cfg.N)
	for i := range oscs {
		oscs[i] = oscillator.New(rng.Float64(), cfg.PeriodSlots, cfg.Coupling)
	}
	b := oscillator.NewBulk(oscs)
	var fired []int
	slot, steps := int64(0), 0
	t0 := time.Now()
	for time.Since(t0) < microTime {
		for j := 0; j < 256; j++ {
			slot++
			fired = b.AdvanceAll(0, b.Len(), slot, fired[:0])
			for _, i := range fired {
				b.Refresh(i)
			}
		}
		steps += 256
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(steps*cfg.N)
}

// ghsBench runs the merge protocol over the deployment's reference
// neighbour table (mean received power as weight) and returns the median
// milliseconds per run and the run's result.
func ghsBench(env *core.Env) (float64, ghs.Result) {
	tr := env.Transport
	nbrs := make([][]ghs.Neighbor, env.Cfg.N)
	for i := range nbrs {
		for _, j := range tr.DeterministicNeighbors(i) {
			nbrs[i] = append(nbrs[i], ghs.Neighbor{Peer: j, Weight: float64(tr.MeanRSSI(i, j))})
		}
	}
	var times []float64
	var res ghs.Result
	var total time.Duration
	for len(times) < 3 || total < microTime {
		t0 := time.Now()
		res = ghs.Run(ghs.Config{Neighbors: nbrs})
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds()*1e3)
	}
	return median(times), res
}

// cycleBench times asyncnet.Queue.Cycle under the workload's plan on
// synthetic waves of dels deliveries between random devices and returns
// nanoseconds per message.
func cycleBench(cfg core.Config, dels int, rng *rand.Rand) float64 {
	q := asyncnet.NewQueue(cfg.Net, xrand.NewStreams(cfg.Seed).Get("asyncnet"))
	wave := make([]rach.Delivery, dels)
	for i := range wave {
		wave[i] = rach.Delivery{To: rng.Intn(cfg.N), Msg: rach.Message{From: rng.Intn(cfg.N)}}
	}
	slot, msgs := units.Slot(0), 0
	t0 := time.Now()
	for time.Since(t0) < microTime {
		for j := 0; j < 64; j++ {
			slot++
			for i := range wave {
				wave[i].Msg.Slot = slot
			}
			q.Cycle(wave, slot)
			msgs += len(wave)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(msgs)
}

// slotCost returns the engine's nanoseconds per stepped slot for the traced
// round's ST run under the plan and for the same deployment, crash and jump
// budget without it.
func slotCost(w *workload, r *round, n int, ds int64) (plan, lockstep float64) {
	perSlot := func(st *telemetry.RunStatsReport, stepped uint64) float64 {
		if st == nil || stepped == 0 {
			return 0
		}
		return float64(st.MeasuredNanos) / float64(stepped)
	}
	key := runKey(w, "ST", n, ds)
	for _, rec := range r.records {
		if rec.key == key {
			plan = perSlot(rec.stats, rec.res.ActiveSlots)
		}
	}
	cfg := w.config(n, ds, "ST")
	cfg.Net = nil
	cfg.CheckpointEvery = 0
	rs := telemetry.NewRunStats()
	cfg.RunStats = rs
	env, err := core.NewEnv(cfg)
	if err != nil {
		panic(err)
	}
	res := core.ST{}.Run(env)
	return plan, perSlot(rs.Report(), res.ActiveSlots)
}
