// Checkpoint support: serializable copies of the oscillator's and the sync
// detector's mutable state. Static parameters (period, coupling, refractory,
// listen window, drift rate) are not captured — a restore rebuilds them by
// re-running the deterministic environment setup and then overlays this
// state, so the snapshot stays small and schema changes stay rare.

package oscillator

// QueuedJumpState is one pending reachback correction.
type QueuedJumpState struct {
	ApplyAt int64   `json:"apply_at"`
	Delta   float64 `json:"delta"`
}

// State is the mutable state of one oscillator: the phase, the refractory /
// jump-budget bookkeeping, pending reachback corrections, and the lazy
// segment anchor. The segment anchor must round-trip exactly — Advance and
// NextFire evaluate the closed-form segment expression, so a restore that
// re-derived the anchor from Phase alone could round differently and drift
// off the bit-identical trajectory.
type State struct {
	Phase        float64 `json:"phase"`
	RefractUntil int64   `json:"refract_until"`
	JumpsUsed    int     `json:"jumps_used"`
	// VirtualAnchor records that the current cycle anchor came from a
	// virtual fire (adversary runs only; omitted when false so degenerate
	// snapshots keep their pre-asynchrony byte layout).
	VirtualAnchor bool `json:"virtual_anchor,omitempty"`
	// RetroFrom is the origin fire slot of a retro-aligned cycle (adversary
	// runs only; zero and omitted when the cycle's fire stands unrewritten).
	RetroFrom int64             `json:"retro_from,omitempty"`
	Queued    []QueuedJumpState `json:"queued,omitempty"`
	SegBase   float64           `json:"seg_base"`
	SegSteps  int64             `json:"seg_steps"`
	SegStep   float64           `json:"seg_step"`
	LastMat   float64           `json:"last_mat"`
	LastSlot  int64             `json:"last_slot"`
}

// State returns a deep copy of the oscillator's mutable state, in canonical
// form: a pending external phase write (Phase ≠ lastMat — e.g. a sync-word
// adoption the engine has not stepped past yet) is serialized as the
// re-anchored segment the next resegment() would produce. Steppers differ in
// when they re-anchor after such a write (a lazy stepper does it eagerly to
// refresh its fire schedule, slot-by-slot Advance lazily on the next step),
// and the two forms are behaviorally identical — canonicalizing here makes
// them byte-identical too.
func (o *Oscillator) State() State {
	st := State{
		Phase:         o.Phase,
		RefractUntil:  o.refractUntil,
		JumpsUsed:     o.jumpsUsed,
		VirtualAnchor: o.anchorVirtual,
		RetroFrom:     o.retroFrom,
		SegBase:       o.segBase,
		SegSteps:      o.segSteps,
		SegStep:       o.segStep,
		LastMat:       o.lastMat,
		LastSlot:      o.lastSlot,
	}
	if o.Phase != o.lastMat {
		st.SegBase = o.Phase
		st.SegSteps = 0
		st.LastMat = o.Phase
	}
	for _, q := range o.queued {
		st.Queued = append(st.Queued, QueuedJumpState{ApplyAt: q.applyAt, Delta: q.delta})
	}
	return st
}

// SetState overwrites the oscillator's mutable state with a saved copy.
// Static parameters are left untouched.
func (o *Oscillator) SetState(st State) {
	o.Phase = st.Phase
	o.refractUntil = st.RefractUntil
	o.jumpsUsed = st.JumpsUsed
	o.anchorVirtual = st.VirtualAnchor
	o.retroFrom = st.RetroFrom
	o.queued = o.queued[:0]
	for _, q := range st.Queued {
		o.queued = append(o.queued, queuedJump{applyAt: q.ApplyAt, delta: q.Delta})
	}
	o.segBase = st.SegBase
	o.segSteps = st.SegSteps
	o.segStep = st.SegStep
	o.lastMat = st.LastMat
	o.lastSlot = st.LastSlot
}

// DetectorState is the full state of a SyncDetector. The parameters are
// included — N tracks the live population and is re-armed on every fault
// application, so a restore cannot rebuild it from config alone.
type DetectorState struct {
	N            int   `json:"n"`
	WindowSlots  int64 `json:"window_slots"`
	StableRounds int   `json:"stable_rounds"`
	RoundStart   int64 `json:"round_start"`
	RoundSeen    int   `json:"round_seen"`
	Stable       int   `json:"stable"`
	Active       bool  `json:"active"`
	Synced       bool  `json:"synced"`
	SyncedAt     int64 `json:"synced_at"`
}

// State returns a copy of the detector's state.
func (d *SyncDetector) State() DetectorState {
	return DetectorState{
		N:            d.N,
		WindowSlots:  d.WindowSlots,
		StableRounds: d.StableRounds,
		RoundStart:   d.roundStart,
		RoundSeen:    d.roundSeen,
		Stable:       d.stable,
		Active:       d.active,
		Synced:       d.synced,
		SyncedAt:     d.syncedAt,
	}
}

// SetState overwrites the detector's state with a saved copy.
func (d *SyncDetector) SetState(st DetectorState) {
	d.N = st.N
	d.WindowSlots = st.WindowSlots
	d.StableRounds = st.StableRounds
	d.roundStart = st.RoundStart
	d.roundSeen = st.RoundSeen
	d.stable = st.Stable
	d.active = st.Active
	d.synced = st.Synced
	d.syncedAt = st.SyncedAt
}
