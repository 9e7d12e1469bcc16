package core

import (
	"math"

	"repro/internal/faults"
	"repro/internal/rach"
	"repro/internal/trace"
	"repro/internal/units"
)

// Engine-side fault injection. The compiled schedule (env.Faults) enters the
// run at two points:
//
//   - delivery filtering: burst link outages and the per-message loss rate
//     drop PS deliveries after the transport resolves them. The drop check
//     runs over the delivery list in its resolved order — which the engine
//     keeps identical across shard layouts and worker counts — so the loss
//     stream's draw sequence, and with it the whole run, stays
//     bit-identical. The decode attempt was already charged by Resolve; a
//     dropped message costs Rx like a real corrupted frame would.
//
//   - membership/clock actions: crashes, recoveries, joins and clock jumps
//     pop at their scheduled slots (applyFaults). The engine folds the
//     schedule's next boundary into the step horizon (nextStep), so it
//     cannot skip an action slot.
//
// Crash/recover semantics match the reference stepper by construction: a
// crashing device materializes its lazy phase first (the frozen phase both
// then agree on), and a recovering device rebases its oscillator at the
// recovery slot on both — the reference's one-step-per-Advance ramp and the
// engine's gap-aware AdvanceTo would otherwise resume from incompatible
// segment states.

// appliedFaults reports what one applyFaults call changed, so the protocol
// loops can update their own bookkeeping (detectors, watchdogs, repair
// scheduling, recovery episodes).
type appliedFaults struct {
	crashed   []int
	recovered []int
	jumped    []int
}

func (a appliedFaults) any() bool {
	return len(a.crashed) > 0 || len(a.recovered) > 0 || len(a.jumped) > 0
}

// applyFaults pops and applies every fault action due at or before slot.
// Call it after stepSlot, at a slot the run actually stepped.
func (e *engine) applyFaults(slot units.Slot) appliedFaults {
	var out appliedFaults
	if e.flt == nil {
		return out
	}
	env := e.env
	for _, a := range e.flt.PopDue(slot) {
		switch a.Kind {
		case faults.KindCrash:
			if !env.Alive[a.Device] {
				continue
			}
			// Freeze a consistent phase before powering off: the lazy
			// oscillator catches up to the crash slot so the engine and
			// the reference agree on the corpse's state.
			e.materialize(a.Device, slot)
			env.Alive[a.Device] = false
			e.deschedule(a.Device)
			out.crashed = append(out.crashed, a.Device)
			env.Cfg.emit(trace.Event{Slot: slot, Kind: trace.KindChurn, A: a.Device, B: -1})
		case faults.KindRecover, faults.KindJoin:
			if env.Alive[a.Device] {
				continue
			}
			env.Alive[a.Device] = true
			// Rebase: the oscillator resumes from its frozen phase as if
			// the downtime never ramped it.
			env.Devices[a.Device].Osc.Rebase(int64(slot))
			e.rescheduleDevice(a.Device)
			out.recovered = append(out.recovered, a.Device)
			env.Cfg.emit(trace.Event{Slot: slot, Kind: trace.KindRecover, A: a.Device, B: -1})
		case faults.KindClockJump:
			if !env.Alive[a.Device] {
				continue
			}
			e.materialize(a.Device, slot)
			osc := env.Devices[a.Device].Osc
			ph := math.Mod(osc.Phase+a.Delta, 1)
			if ph < 0 {
				ph++
			}
			osc.Phase = ph
			e.phaseWritten(a.Device, slot)
			out.jumped = append(out.jumped, a.Device)
		}
	}
	return out
}

// filterFaultDeliveries drops outage-blocked and loss-sampled deliveries,
// compacting the list in place (no allocation; relative order — and with it
// receiver contiguity — is preserved).
func filterFaultDeliveries(flt *faults.Injector, dels []rach.Delivery, slot units.Slot) []rach.Delivery {
	kept := dels[:0]
	for _, del := range dels {
		if flt.Drops(del.Msg.From, del.To, slot) {
			continue
		}
		kept = append(kept, del)
	}
	return kept
}

// liveFragments counts the distinct fragment ids among alive devices — the
// telemetry fragment probe under churn must not count fragments that exist
// only as dead members (satellite: recovery-aware convergence accounting).
func liveFragments(env *Env, frag []int) int {
	if frag == nil {
		return env.AliveCount()
	}
	seen := make(map[int]struct{}, 8)
	for i, f := range frag {
		if env.Alive[i] {
			seen[f] = struct{}{}
		}
	}
	return len(seen)
}
