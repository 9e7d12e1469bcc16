package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/rach"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// The reference stepper: the executable spec the run engine is pinned
// against. It steps every slot and advances every oscillator in every slot —
// no lazy phases, no shards, no skipped slots — so each differential suite
// compares the engine's trajectory against the plainest reading of the
// model. Tests select it per run with withOracle.

// withOracle returns cfg set to run on the reference stepper.
func withOracle(cfg Config) Config {
	cfg.oracle = (*engine).stepSequential
	return cfg
}

// stepSequential advances the whole network one slot: every oscillator
// ramps, the devices that fire broadcast a PS on RACH1 in the same slot, and
// the transport resolves same-slot same-codec collisions with the capture
// model before delivering. Receivers record decoded PSs for discovery and —
// when the coupling rule admits the sender — apply the PRC. Pulse-triggered
// fires (absorption) transmit in a follow-up wave within the same slot; the
// per-oscillator refractory window bounds every device to one fire per
// slot, so the cascade terminates.
//
// opsPerPulse is charged once per delivered pulse and models the brightness
// ranking work of Algorithm 3 (O(n) for the basic scan, O(log n) for the
// ordered structure). The returned slice lists the devices that fired; it is
// engine-owned and valid until the next step — the fired list and the
// cascade's ping-pong wave buffers are reused across slots, so the
// steady-state loop allocates nothing.
func (e *engine) stepSequential(slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int {
	env := e.env
	// Runstats timing chains timestamps: each measured interval ends where
	// the next begins, so an instrumented slot pays one clock read per
	// phase boundary and the disabled path one nil check each.
	rs := e.rs
	var t0 time.Time
	if rs != nil {
		t0 = time.Now()
	}
	fired := e.firedAll[:0]
	for i, d := range env.Devices {
		if !env.Alive[i] {
			continue
		}
		if d.Osc.Advance(int64(slot)) {
			fired = append(fired, i)
		}
	}
	if rs != nil {
		t1 := time.Now()
		rs.AddPhase(telemetry.PhaseAdvance, t1.Sub(t0))
		t0 = t1
	}
	// With a message adversary, a slot with no local fire still runs a
	// delivery wave when an in-flight pulse lands here, and absorption
	// echoes collected from one wave transmit with the next; without one
	// the loop shape (and the nil-queue pass-through) is the reference's.
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
		buf := waveBuf
		waveBuf ^= 1
		next := e.waves[buf][:0]
		senders := wave
		if net != nil {
			senders = ec.senders(wave, echoCur)
		}
		var dels []rach.Delivery
		if len(senders) > 0 {
			dels = env.Transport.BroadcastAll(senders, rach.RACH1, rach.KindPulse, e.service, slot)
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
		for _, del := range dels {
			if !env.Alive[del.To] {
				continue // powered-off receivers hear nothing
			}
			recv := env.Devices[del.To]
			recv.ObservePS(del.Msg.From, del.Msg.RSSI, device.Service(del.Msg.Service))
			*ops += opsPerPulse
			if !couples(del.Msg.From, del.To) {
				continue
			}
			if recv.Osc.OnPulseSent(int64(del.Msg.Slot), int64(slot)) {
				next = append(next, del.To)
			} else if net != nil {
				if ep, ok := recv.Osc.TakeEcho(); ok {
					ec.collect(1-echoCur, del.To, units.Slot(ep))
				}
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
	if env.Cfg.EventTrace != nil {
		for _, f := range fired {
			env.Cfg.EventTrace(trace.Event{Slot: slot, Kind: trace.KindFire, A: f, B: -1})
		}
	}
	if env.Cfg.ProgressTrace != nil && env.Cfg.ProgressEvery > 0 && slot%env.Cfg.ProgressEvery == 0 {
		env.Cfg.ProgressTrace(slot)
	}
	return fired
}

// layout is one execution configuration the engine must be invariant over.
type layout struct {
	name    string
	oracle  bool // step on the reference instead of the engine
	workers int
	shards  int // forced shard count (0 derives it from N and Workers)
}

// layouts is the execution matrix of the differential suites: the reference
// stepper first, then the engine at Workers 0, 1, 2 and 4 — with forced shard
// counts, since the small test deployments would otherwise all derive a
// single shard and never exercise the pool.
var layouts = []layout{
	{name: "oracle", oracle: true},
	{name: "w0", workers: 0},
	{name: "w1-s3", workers: 1, shards: 3},
	{name: "w2-s4", workers: 2, shards: 4},
	{name: "w4-sN", workers: 4, shards: 1 << 20}, // clamped to one per device
}

// apply returns cfg set to run in layout l.
func (l layout) apply(cfg Config) Config {
	if l.oracle {
		return withOracle(cfg)
	}
	cfg.Workers = l.workers
	cfg.shards = l.shards
	return cfg
}

// TestEngineMatchesOracle is the engine's differential spine: every protocol,
// with and without a crash-and-recover plan and an asynchrony plan, must
// walk the reference stepper's trajectory bit for bit at Workers 0, 1, 2 and
// 4 — from slot 1 and resumed from a mid-run checkpoint the reference
// captured.
func TestEngineMatchesOracle(t *testing.T) {
	crash := &faults.Plan{Version: faults.PlanSchema}
	for d := 32; d < 40; d++ {
		crash.Actions = append(crash.Actions, faults.Action{Kind: faults.KindCrash, At: 500, Device: d})
	}
	crash.Actions = append(crash.Actions,
		faults.Action{Kind: faults.KindRecover, At: 900, Device: 33},
		faults.Action{Kind: faults.KindRecover, At: 900, Device: 38})
	net := &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 25, Reorder: true, DupRate: 0.02}
	for _, proto := range []Protocol{FST{}, ST{}, Centralized{}} {
		for _, fplan := range []*faults.Plan{nil, crash} {
			for _, nplan := range []*asyncnet.Plan{nil, net} {
				label := fmt.Sprintf("%s/crash=%v/net=%v", proto.Name(), fplan != nil, nplan != nil)
				cfg := netCfg(40, 31, 1600, nplan)
				cfg.Faults = fplan
				cfg.CheckpointEvery = 300
				if proto.Name() == "BS" {
					cfg.CheckpointEvery = 60 // BS checkpoints its discovery phase only
				}
				ref, cks := checkpointRun(t, proto, withOracle(cfg))
				if len(cks) == 0 {
					t.Fatalf("%s: the reference captured no checkpoint", label)
				}
				if fplan != nil && proto.Name() != "BS" && ref.res.Repairs == 0 {
					t.Errorf("%s: the crash plan triggered no repair", label)
				}
				if nplan != nil && (ref.res.Net == nil || ref.res.Net.Delayed == 0) {
					t.Errorf("%s: the asynchrony plan delayed nothing", label)
				}
				mid := cks[len(cks)/2]
				for _, l := range layouts[1:] {
					got, _ := fingerprintCfg(t, proto, l.apply(cfg))
					compareFingerprints(t, label+"/"+l.name, ref, got)
					compareRecovery(t, label+"/"+l.name, ref.res, got.res)

					rCfg := l.apply(cfg)
					rCfg.Resume = decodeCheckpoint(t, mid)
					cont, _ := fingerprintCfg(t, proto, rCfg)
					checkResume(t, fmt.Sprintf("%s/%s/resume@%d", label, l.name, mid.slot), ref, mid.slot, cont)
				}
			}
		}
	}
}

// collect records an echo of epoch for device id in the reference
// stepper's echo buffer buf. Delivery lists are receiver-grouped, so a
// device re-absorbed within one wave arrives as a consecutive duplicate and
// collapses to the latest epoch instead of transmitting twice.
func (ec *echoState) collect(buf, id int, epoch units.Slot) {
	if k := len(ec.ids[buf]); k > 0 && ec.ids[buf][k-1] == id {
		ec.epochs[buf][k-1] = epoch
		return
	}
	ec.ids[buf] = append(ec.ids[buf], id)
	ec.epochs[buf] = append(ec.epochs[buf], epoch)
}
