// Checkpoint capture and restore. A checkpoint is taken after a stepped slot
// has fully settled (cascade, faults, protocol timers, telemetry), with lazy
// phases materialized first — materialization is exactly what the reference
// stepper does every slot, so the captured state is independent of the
// shard layout and a snapshot restores bit-identically for any worker
// count.
//
// A restore rebuilds the environment from config (re-running the
// deterministic setup draws), then overlays the saved mutable state; stream
// cursors are absolute positions counted from each stream's derived seed, so
// the re-run setup draws do not disturb them.

package core

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/units"
)

// captureState builds the environment- and engine-level portion of a
// checkpoint at slot. The caller (the protocol loop) attaches its own
// protocol section and the Protocol tag before handing the state out.
func captureState(env *Env, eng *engine, slot units.Slot) *snapshot.State {
	eng.materializeAllAt(slot)
	st := &snapshot.State{
		Slot:    int64(slot),
		Seed:    env.Cfg.Seed,
		N:       env.Cfg.N,
		Streams: env.Streams.Cursors(),
		Alive:   append([]bool(nil), env.Alive...),
		Engine:  eng.engineState(),
		Transport: snapshot.TransportState{
			Counters:   env.Transport.Counters(),
			Collisions: env.Transport.Collisions(),
		},
		Telemetry: env.Cfg.Telemetry.State(),
	}
	if env.Faults != nil {
		st.FaultCursor = env.Faults.Cursor()
	}
	if env.Net != nil {
		st.Net = env.Net.State()
	}
	st.Devices = make([]snapshot.DeviceState, len(env.Devices))
	for i, d := range env.Devices {
		ds := snapshot.DeviceState{Osc: d.Osc.State(), Peers: env.Peers(i)}
		ds.ServicePeers = env.servicePeers(i, ds.Peers)
		st.Devices[i] = ds
	}
	return st
}

// restoreEnvState overlays a snapshot's environment-level state onto a
// freshly built Env, whose NewEnv already installed the snapshot's
// neighbour tables (restoreTables). It must run before newEngine — the
// engine derives its next-fire schedule from the oscillator states this
// installs.
func restoreEnvState(env *Env, st *snapshot.State) {
	env.Streams.Restore(st.Streams)
	copy(env.Alive, st.Alive)
	for i, ds := range st.Devices {
		env.Devices[i].Osc.SetState(ds.Osc)
	}
	env.Transport.RestoreCounters(st.Transport.Counters, st.Transport.Collisions)
	if env.Faults != nil {
		env.Faults.SetCursor(st.FaultCursor)
	}
	// The queue exists iff the config carries a non-degenerate asynchrony
	// plan — the same predicate that decided whether the capture wrote a Net
	// section, so the two sides always agree. The delay stream's cursor was
	// already reseated by Streams.Restore above.
	if env.Net != nil && st.Net != nil {
		env.Net.Restore(st.Net)
	}
	env.Cfg.Telemetry.SetState(st.Telemetry)
}

// engineState captures the engine's slot accounting and the echoes armed
// for the next stepped slot.
func (e *engine) engineState() snapshot.EngineState {
	st := snapshot.EngineState{
		ActiveSlots: e.activeSlots,
		TotalSlots:  e.totalSlots,
		LastSlot:    int64(e.lastSlot),
	}
	if ec := e.echo; ec != nil {
		for i, id := range ec.ids[0] {
			st.Echoes = append(st.Echoes, snapshot.EchoState{Device: id, Epoch: int64(ec.epochs[0][i])})
		}
	}
	return st
}

// restoreEngineState overlays saved engine state onto a freshly built
// engine.
func (e *engine) restoreEngineState(st snapshot.EngineState) {
	e.activeSlots = st.ActiveSlots
	e.totalSlots = st.TotalSlots
	e.lastSlot = units.Slot(st.LastSlot)
	if len(st.Echoes) > 0 {
		ec := newEchoState(len(e.env.Devices))
		for _, x := range st.Echoes {
			ec.ids[0] = append(ec.ids[0], x.Device)
			ec.epochs[0] = append(ec.epochs[0], units.Slot(x.Epoch))
		}
		e.echo = ec
	}
}

// resumeFor returns the decoded snapshot a run should resume from, or nil
// for a fresh run. The protocol tag must match — resuming an ST run with an
// FST snapshot is a programming (or CLI-validation) error, not a recoverable
// condition, so it panics.
func resumeFor(cfg Config, proto string) *snapshot.State {
	if cfg.Resume == nil {
		return nil
	}
	if cfg.Resume.Protocol != proto {
		panic(fmt.Sprintf("core: resume snapshot is for protocol %q, run is %q", cfg.Resume.Protocol, proto))
	}
	return cfg.Resume
}

// resultState captures the mid-run portion of a Result.
func resultState(res *Result) snapshot.ResultState {
	return snapshot.ResultState{
		Converged:        res.Converged,
		ConvergenceSlots: int64(res.ConvergenceSlots),
		Counters:         res.Counters,
		Ops:              res.Ops,
		Repairs:          res.Repairs,
		Recoveries:       res.Recoveries,
		RecoverySlots:    int64(res.RecoverySlots),
	}
}

// applyResultState overlays a saved mid-run Result accumulation.
func applyResultState(res *Result, st snapshot.ResultState) {
	res.Converged = st.Converged
	res.ConvergenceSlots = units.Slot(st.ConvergenceSlots)
	res.Counters = st.Counters
	res.Ops = st.Ops
	res.Repairs = st.Repairs
	res.Recoveries = st.Recoveries
	res.RecoverySlots = units.Slot(st.RecoverySlots)
}
