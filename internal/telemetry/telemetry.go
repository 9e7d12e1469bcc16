// Package telemetry is the run-observability layer: cheap always-on
// counters, ring-buffered time-series probes sampled as a run unfolds, and
// live exposition of process-wide metrics over HTTP (Prometheus text
// format, expvar and pprof).
//
// The layer has one hard contract: it must be provably free when disabled
// and RNG-neutral when enabled. A disabled run is a nil *Run — every probe
// method is nil-safe and compiles down to a pointer check on the hot path,
// so the run engine keeps its measured 1 alloc/op steady state. An
// enabled run only *reads* simulation state (phases, counters, discovery
// tables): no probe draws from a random stream or reorders protocol work,
// so differential fingerprints are bit-identical with telemetry on or off.
// The core engine treats sampling boundaries exactly like ProgressTrace
// boundaries — it folds them into its next-event horizon and steps them
// explicitly, which is visible only in ActiveSlots (an observable that
// differential fingerprints already exclude).
package telemetry

import (
	"repro/internal/units"
)

// Sample is one time-series point, taken at a sampling boundary after the
// slot's fire cascade has settled. All fields are cumulative-or-instant
// reads of simulation state; none consumes randomness.
type Sample struct {
	// Slot is the simulation slot the sample was taken at.
	Slot units.Slot `json:"slot"`
	// OrderParam is the Kuramoto order parameter r ∈ [0,1] over the alive
	// devices' phases (1 = perfect synchrony).
	OrderParam float64 `json:"order_param"`
	// PhaseSpread is the smallest arc (fraction of a cycle) containing
	// all alive phases — the max-phase-spread reading of sync precision.
	PhaseSpread float64 `json:"phase_spread"`
	// Links is the cumulative count of directed neighbour-table entries
	// (physical-level discovery coverage).
	Links int `json:"discovered_links"`
	// Fragments is the protocol's current fragment/component count: ST
	// tree fragments, FST's unjoined devices + 1, zero where undefined.
	Fragments int `json:"fragments"`
	// RachTx is the cumulative control-message transmission count —
	// transport traffic plus protocol-charged handshakes.
	RachTx uint64 `json:"rach_tx"`
	// Collisions is the cumulative count of contention groups lost to
	// same-slot collision arbitration (rach.Transport.Collisions).
	Collisions uint64 `json:"collisions"`
	// Alive is the powered-on device count — the fault layer's churn made
	// visible in the series (equals N for fault-free runs).
	Alive int `json:"alive,omitempty"`
	// Repairs is the cumulative count of completed self-healing rounds.
	Repairs int `json:"repairs,omitempty"`
}

// Run accumulates one protocol run's telemetry: a stepped-slot counter and
// a bounded ring of Samples. A nil *Run is the disabled state — every
// method on it is safe to call and does nothing, so instrumented code
// threads the pointer unconditionally. Run is not goroutine-safe: probes
// fire from the protocol loop's goroutine only (the engine's intra-slot
// workers never touch it).
type Run struct {
	// Live, when non-nil, receives process-wide counter updates alongside
	// the per-run accumulation, so an HTTP scrape sees the run move.
	Live *Vars

	every   units.Slot
	samples []Sample
	next    int
	count   int
	dropped int
	stepped uint64
}

// DefaultSeriesCap bounds a Run's sample ring when NewRun is given no
// explicit capacity.
const DefaultSeriesCap = 4096

// NewRun builds an enabled telemetry run sampling every `every` slots into
// a ring of `capacity` samples (capacity < 1 selects DefaultSeriesCap).
// every < 1 disables time-series sampling but keeps the counters.
func NewRun(every units.Slot, capacity int) *Run {
	if capacity < 1 {
		capacity = DefaultSeriesCap
	}
	return &Run{every: every, samples: make([]Sample, capacity)}
}

// Enabled reports whether the run is collecting (false for nil).
func (r *Run) Enabled() bool { return r != nil }

// SampleEvery returns the sampling interval in slots, 0 when sampling is
// disabled (nil run or non-positive interval).
func (r *Run) SampleEvery() units.Slot {
	if r == nil || r.every < 1 {
		return 0
	}
	return r.every
}

// WantsSample reports whether slot is a sampling boundary. Nil-safe; the
// engines call it once per stepped slot.
func (r *Run) WantsSample(slot units.Slot) bool {
	if r == nil || r.every < 1 {
		return false
	}
	return slot%r.every == 0
}

// NextSampleAfter returns the first sampling boundary strictly after the
// given slot, or ok=false when sampling is disabled — the run engine
// folds this into its next-event horizon so boundary slots are stepped
// (and phases materialized) even when every device sleeps.
func (r *Run) NextSampleAfter(after units.Slot) (units.Slot, bool) {
	if r == nil || r.every < 1 {
		return 0, false
	}
	return (after/r.every + 1) * r.every, true
}

// SlotStepped counts one stepped slot — the per-slot probe on the enabled
// path (a counter increment and an optional atomic add; no allocation).
func (r *Run) SlotStepped() {
	if r == nil {
		return
	}
	r.stepped++
	if r.Live != nil {
		r.Live.SlotsStepped.Add(1)
	}
}

// SlotsStepped returns the number of stepped slots counted so far.
func (r *Run) SlotsStepped() uint64 {
	if r == nil {
		return 0
	}
	return r.stepped
}

// Record appends one sample to the ring, overwriting the oldest when full
// (Dropped counts the overwrites, so a report can say "first K samples
// lost" instead of silently truncating the series).
func (r *Run) Record(s Sample) {
	if r == nil {
		return
	}
	if r.count == len(r.samples) {
		r.dropped++
	} else {
		r.count++
	}
	r.samples[r.next] = s
	r.next = (r.next + 1) % len(r.samples)
}

// Len returns the number of retained samples.
func (r *Run) Len() int {
	if r == nil {
		return 0
	}
	return r.count
}

// Dropped returns how many samples the ring overwrote.
func (r *Run) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// RunState is a serializable copy of a Run's accumulation (the sampling
// interval and ring capacity are configuration, not state, and are not
// captured — a restore overlays onto a freshly configured Run).
type RunState struct {
	Samples []Sample `json:"samples,omitempty"`
	Dropped int      `json:"dropped,omitempty"`
	Stepped uint64   `json:"stepped"`
}

// State captures the run's accumulation; nil for a disabled run.
func (r *Run) State() *RunState {
	if r == nil {
		return nil
	}
	return &RunState{Samples: r.Samples(), Dropped: r.dropped, Stepped: r.stepped}
}

// SetState replays a saved accumulation into the run. Samples are re-recorded
// oldest first, so when the ring capacities match the restored run's series
// and drop count are byte-identical to the original's. Nil-safe on both
// sides; Live counters are not touched (they are process-scoped, not run
// state).
func (r *Run) SetState(st *RunState) {
	if r == nil || st == nil {
		return
	}
	r.next, r.count, r.dropped = 0, 0, 0
	for _, s := range st.Samples {
		r.Record(s)
	}
	r.dropped = st.Dropped
	r.stepped = st.Stepped
}

// Samples returns the retained samples in recording order (oldest first).
func (r *Run) Samples() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.samples)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.samples[(start+i)%len(r.samples)])
	}
	return out
}
