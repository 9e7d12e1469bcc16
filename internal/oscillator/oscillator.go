// Package oscillator implements the firefly synchronization model of
// Section III: Mirollo–Strogatz pulse-coupled integrate-and-fire oscillators
// with the piecewise-linear phase response curve of eq. (5), plus ensemble
// utilities (order parameter, synchrony detection) used by the protocol
// layers to decide when a network has converged.
//
// Each oscillator carries a phase θ ∈ [0, θth] that ramps linearly
// (eq. (3): dθ/dt = θth/T). When θ reaches the threshold the oscillator
// "fires" (broadcasts a PS) and resets to zero; when it hears a neighbour
// fire it jumps its phase by the PRC (eq. (4)):
//
//	θ ← min(α·θ + β, θth)   with α = e^{aε}, β = (e^{aε}−1)/(e^{a}−1)
//
// Mirollo & Strogatz prove that for α > 1, β > 0 (i.e. a > 0, ε > 0) an
// all-to-all network always converges to synchrony; the paper leans on the
// companion result of [17] that tree topologies also always synchronize.
package oscillator

import (
	"fmt"
	"math"
)

// Threshold is θth. The paper normalizes the phase threshold to 1.
const Threshold = 1.0

// Coupling holds the PRC parameters of eq. (5), derived from the dissipation
// factor a and the amplitude increment ε.
type Coupling struct {
	// Alpha is the multiplicative phase-jump factor, α = e^{aε}.
	Alpha float64
	// Beta is the additive phase-jump term, β = (e^{aε}−1)/(e^{a}−1).
	Beta float64
}

// NewCoupling computes α and β from the dissipation factor a and the pulse
// amplitude increment epsilon, exactly per eq. (5). It panics if a or
// epsilon is non-positive, because convergence requires α > 1 and β > 0.
func NewCoupling(a, epsilon float64) Coupling {
	if a <= 0 || epsilon <= 0 {
		panic(fmt.Sprintf("oscillator: coupling needs a>0, ε>0 (got a=%v, ε=%v)", a, epsilon))
	}
	alpha := math.Exp(a * epsilon)
	beta := (math.Exp(a*epsilon) - 1) / (math.Exp(a) - 1)
	return Coupling{Alpha: alpha, Beta: beta}
}

// DefaultCoupling is a moderate setting (a = 3, ε = 0.1) that satisfies the
// Mirollo–Strogatz convergence condition with phase jumps of a few percent
// of the cycle — comparable to the settings used in firefly-sync literature.
func DefaultCoupling() Coupling { return NewCoupling(3, 0.1) }

// WeakCoupling is the low-gain setting (a = 3, ε = 0.02) the protocol
// experiments use: per-pulse jumps of a fraction of a percent, so that mesh
// synchronization time depends visibly on network extent instead of
// collapsing to a single absorption cascade.
func WeakCoupling() Coupling { return NewCoupling(3, 0.02) }

// Converges reports whether the coupling satisfies the Mirollo–Strogatz
// sufficient condition α > 1, β > 0.
func (c Coupling) Converges() bool { return c.Alpha > 1 && c.Beta > 0 }

// Jump applies the PRC to a phase: min(α·θ + β, Threshold).
func (c Coupling) Jump(theta float64) float64 {
	v := c.Alpha*theta + c.Beta
	if v > Threshold {
		return Threshold
	}
	return v
}

// Oscillator is one integrate-and-fire oscillator with a slotted clock.
type Oscillator struct {
	// Phase is the current phase in [0, Threshold].
	Phase float64
	// PeriodSlots is the free-running period T expressed in simulation
	// slots; the phase ramps by Threshold/PeriodSlots per slot.
	PeriodSlots int
	// Coupling is the PRC applied on pulse reception.
	Coupling Coupling
	// Refractory, when positive, is the number of slots after a fire
	// during which incoming pulses are ignored. A short refractory period
	// is the standard cure for same-instant echo storms on radio channels
	// (cf. the Reachback Firefly Algorithm's treatment).
	Refractory int
	// JumpsPerCycle caps how many PRC jumps are applied between two of
	// this oscillator's own fires; 0 means unlimited (pure Mirollo–
	// Strogatz). Slotted radio implementations apply one adjustment per
	// frame from the superimposed received pulses (MEMFIS-style); the
	// protocol layers set 1.
	JumpsPerCycle int
	// ListenPhase is the phase the listening window opens at: pulses
	// arriving while Phase < ListenPhase neither couple nor consume the
	// jump budget. Radio firefly implementations (RFA, MEMFIS) listen in
	// a window near their own firing instant; 0 listens always.
	ListenPhase float64
	// Rate scales the phase ramp to model clock drift: an oscillator with
	// Rate 1.001 runs 1000 ppm fast. Zero is treated as 1 (nominal).
	// With drifted clocks synchrony is no longer an absorbing state — it
	// must be actively maintained by pulse coupling, which tolerates
	// drift only up to roughly β·T slots per period.
	Rate float64
	// ReachbackDelaySlots enables the Reachback Firefly Algorithm
	// discipline (Werner-Allen et al., the paper's ref [13]): a pulse's
	// PRC jump is not applied at reception but queued and applied after
	// this many slots — the radio/MAC processing delay RFA was designed
	// around. The delay must stay well below the period: queuing jumps a
	// full cycle (as a naive "apply at my next fire" reading would)
	// flips the dynamics into stable antiphase/splay locking, the classic
	// delayed-pulse-coupling result. Zero means immediate coupling.
	ReachbackDelaySlots int

	refractUntil int64 // absolute slot until which pulses are ignored
	jumpsUsed    int   // PRC jumps consumed since the last own fire
	queued       []queuedJump
	echoEpoch    int64 // adopted epoch of the latest virtual fire
	echoSet      bool  // an echo of echoEpoch is pending transmission
	// anchorVirtual marks the current cycle anchor as a virtual fire: the
	// beat was adopted from an aged pulse, not announced by a real
	// transmission. A virtual anchor is immune to retro-alignment until
	// the next real fire — without that stickiness, chains of slightly
	// older in-flight pulses walk a device's beat backward without bound
	// (each steal re-opens the window to still-older epochs), which at
	// delays near T/2 turns the echo cascade into permanent churn.
	anchorVirtual bool
	// retroFrom is the origin fire slot of a retro-aligned cycle — the last
	// fire reached by actual phase dynamics before pre-fire pulses began
	// rewriting the epoch backward. Zero while the cycle's fire stands
	// unrewritten.
	retroFrom int64

	// Lazy segment state. Between discontinuities (fires, PRC jumps,
	// matured reachback corrections, external Phase writes, step-size
	// changes) the ramp is linear, so the phase after k uninterrupted
	// steps is the closed form fl(segBase + fl(k·segStep)) — one rounding
	// for the product, one for the sum, independent of how the k steps
	// are grouped. Advance, AdvanceTo and NextFire all evaluate exactly
	// this expression, which is what makes slot-by-slot stepping and
	// event-driven fast-forwarding bit-identical.
	segBase  float64 // phase at the segment origin
	segSteps int64   // ramp steps taken since the segment origin
	segStep  float64 // per-slot increment the segment was built with
	lastMat  float64 // Phase as last materialized (detects external writes)
	lastSlot int64   // slot of the last Advance/AdvanceTo step
}

// fireEpsilon is the tolerance of the firing comparison: a phase within
// 1e-12 of Threshold counts as having reached it, absorbing the rounding of
// the ramp arithmetic (e.g. 100 × 0.01 accumulating to 1.0000000000000002).
const fireEpsilon = 1e-12

// queuedJump is a matured-delivery PRC adjustment (reachback mode).
type queuedJump struct {
	applyAt int64
	delta   float64
}

// New returns an oscillator with the given initial phase, period (slots) and
// coupling and a 1-slot refractory window.
func New(phase float64, periodSlots int, c Coupling) *Oscillator {
	if periodSlots <= 0 {
		panic("oscillator: period must be positive")
	}
	p := clampPhase(phase)
	return &Oscillator{Phase: p, PeriodSlots: periodSlots, Coupling: c, Refractory: 1,
		segBase: p, lastMat: p}
}

func clampPhase(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > Threshold {
		return Threshold
	}
	return p
}

// stepSize is the per-slot phase increment (eq. (3)), scaled by Rate.
func (o *Oscillator) stepSize() float64 {
	rate := o.Rate
	if rate == 0 {
		rate = 1
	}
	return rate * Threshold / float64(o.PeriodSlots)
}

// segPhase materializes the phase after k ramp steps from base. The
// intermediate assignment forces the product to round before the sum (no
// fused multiply-add), so every caller — Advance, AdvanceTo, NextFire —
// evaluates the identical float64 sequence.
func segPhase(base float64, k int64, step float64) float64 {
	ramp := float64(k) * step
	return base + ramp
}

// resegment starts a new linear segment at the current Phase if the phase
// was written externally (sync-word adoption, the BS timing broadcast,
// tests poking Phase) or the step size changed (Rate/PeriodSlots edits),
// and returns the step to ramp with.
func (o *Oscillator) resegment() float64 {
	step := o.stepSize()
	if o.Phase != o.lastMat || step != o.segStep {
		o.segBase = o.Phase
		o.segSteps = 0
		o.segStep = step
		o.lastMat = o.Phase
	}
	return step
}

// rebaseHere restarts the segment at the current Phase (after a PRC jump or
// a matured reachback correction).
func (o *Oscillator) rebaseHere() {
	o.segBase = o.Phase
	o.segSteps = 0
	o.lastMat = o.Phase
}

// fireReset is the threshold crossing: phase to zero, refractory window
// opens, jump budget refills. Queued corrections survive the reset: a jump
// earned just before firing still advances the next cycle, which is how a
// laggard finishes closing the last few slots.
func (o *Oscillator) fireReset(nowSlot int64) {
	o.Phase = 0
	o.segBase = 0
	o.segSteps = 0
	o.lastMat = 0
	o.refractUntil = nowSlot + int64(o.Refractory)
	o.jumpsUsed = 0
	o.anchorVirtual = false
	o.retroFrom = 0
}

// applyMatured folds queued reachback jumps whose delay has elapsed into the
// phase (in queue order) and restarts the segment at the corrected value.
func (o *Oscillator) applyMatured(nowSlot int64) {
	kept := o.queued[:0]
	applied := false
	for _, q := range o.queued {
		if q.applyAt <= nowSlot {
			o.Phase += q.delta
			applied = true
		} else {
			kept = append(kept, q)
		}
	}
	o.queued = kept
	if applied {
		o.rebaseHere()
	}
}

// Advance moves the oscillator forward one slot (eq. (3)) and reports
// whether it fires in this slot. After a fire the phase is reset to zero
// (eq. (4), first case).
func (o *Oscillator) Advance(nowSlot int64) (fired bool) {
	step := o.resegment()
	// Apply matured reachback jumps first.
	if len(o.queued) > 0 {
		o.applyMatured(nowSlot)
	}
	o.segSteps++
	o.Phase = segPhase(o.segBase, o.segSteps, step)
	o.lastSlot = nowSlot
	if o.Phase >= Threshold-fireEpsilon {
		o.fireReset(nowSlot)
		return true
	}
	o.lastMat = o.Phase
	return false
}

// AdvanceTo advances the oscillator through every slot in (lastSlot,
// target], exactly as if Advance had been called once per slot, and reports
// whether it fires at target. Slots at or before the last step are a no-op.
//
// The caller must not let AdvanceTo skip over a fire: the run engine
// consults NextFire and steps to each firing slot explicitly, so a
// threshold crossing strictly before target means the fire schedule is
// stale — a contract violation worth failing loud on, because silently
// swallowing the fire would desynchronize the run from slot-by-slot
// stepping.
func (o *Oscillator) AdvanceTo(target int64) (fired bool) {
	if target <= o.lastSlot {
		return false
	}
	step := o.resegment()
	for o.lastSlot < target {
		// Next queued-jump maturity in range, if any. Matured jumps apply
		// at the top of their slot, before that slot's ramp, so they split
		// the linear segment.
		m, hasM := int64(0), false
		for _, q := range o.queued {
			if q.applyAt <= target && (!hasM || q.applyAt < m) {
				m, hasM = q.applyAt, true
			}
		}
		pureEnd := target
		if hasM {
			pureEnd = m - 1
		}
		if pureEnd > o.lastSlot {
			if d, fires := o.fireStep(step, pureEnd-o.lastSlot); fires {
				at := o.lastSlot + d
				if at != target {
					panic("oscillator: AdvanceTo skipped a fire; step to NextFire first")
				}
				o.segSteps += d
				o.lastSlot = at
				o.fireReset(at)
				return true
			}
			o.segSteps += pureEnd - o.lastSlot
			o.Phase = segPhase(o.segBase, o.segSteps, step)
			o.lastMat = o.Phase
			o.lastSlot = pureEnd
		}
		if hasM {
			// Slot m itself: corrections first, then one ramp step —
			// the exact order Advance uses.
			o.applyMatured(m)
			o.segSteps++
			o.Phase = segPhase(o.segBase, o.segSteps, step)
			o.lastSlot = m
			if o.Phase >= Threshold-fireEpsilon {
				if m != target {
					panic("oscillator: AdvanceTo skipped a fire; step to NextFire first")
				}
				o.fireReset(m)
				return true
			}
			o.lastMat = o.Phase
		}
	}
	return false
}

// fireStep returns the smallest d ∈ [1, span] whose materialized phase on
// the current segment meets the firing threshold, or ok=false if the ramp
// stays below it for the whole span. The analytic guess ⌈(θth−base)/step⌉
// lands within an ulp or two of the answer; the monotone adjustment loops
// settle it using the exact comparison Advance evaluates.
func (o *Oscillator) fireStep(step float64, span int64) (d int64, ok bool) {
	if step <= 0 {
		return 0, false
	}
	fireAt := Threshold - fireEpsilon
	lo, hi := o.segSteps+1, o.segSteps+span
	guess := lo
	if r := (fireAt - o.segBase) / step; r > float64(hi) {
		guess = hi + 1
	} else if r > float64(lo) {
		guess = int64(math.Ceil(r))
	}
	for guess > lo && segPhase(o.segBase, guess-1, step) >= fireAt {
		guess--
	}
	for guess <= hi && segPhase(o.segBase, guess, step) < fireAt {
		guess++
	}
	if guess > hi {
		return 0, false
	}
	return guess - o.segSteps, true
}

// NextFire predicts the absolute slot of the oscillator's next fire under
// free running — no further pulses, queued reachback corrections maturing
// on schedule — or ok=false if it never reaches the threshold (non-positive
// effective step, or a horizon beyond any representable run). It evaluates
// the same segment expression Advance does, so the prediction is exact: the
// run engine schedules it, fast-forwards, and the fire happens on that
// slot, bit for bit.
func (o *Oscillator) NextFire() (slot int64, ok bool) {
	step := o.resegment()
	base, k, last := o.segBase, o.segSteps, o.lastSlot
	phase := o.Phase
	var pending []queuedJump
	if len(o.queued) > 0 {
		pending = append(pending, o.queued...)
	}
	fireAt := Threshold - fireEpsilon
	for {
		m, hasM := int64(0), false
		for _, q := range pending {
			if !hasM || q.applyAt < m {
				m, hasM = q.applyAt, true
			}
		}
		if r := (fireAt - base) / step; step > 0 && r <= 1e15 {
			// Fire on the pure ramp strictly before the next maturity?
			lo := k + 1
			guess := lo
			if r > float64(lo) {
				guess = int64(math.Ceil(r))
			}
			for guess > lo && segPhase(base, guess-1, step) >= fireAt {
				guess--
			}
			for segPhase(base, guess, step) < fireAt {
				guess++
			}
			if at := last + (guess - k); !hasM || at < m {
				return at, true
			}
		}
		if !hasM {
			// Non-positive step, or a horizon beyond any representable
			// run, with no queued correction left to change that.
			return 0, false
		}
		// Ramp to the end of slot m−1, apply the matured corrections in
		// queue order (what applyMatured does at the top of slot m), and
		// restart the segment there.
		phase = segPhase(base, k+(m-1-last), step)
		var kept []queuedJump
		for _, q := range pending {
			if q.applyAt <= m {
				phase += q.delta
			} else {
				kept = append(kept, q)
			}
		}
		pending = kept
		base, k, last = phase, 0, m-1
	}
}

// Rebase pins an externally assigned Phase as the oscillator's state at the
// end of slot nowSlot without ramping through the slots in between. The
// run engine's protocol hooks call it after overwriting Phase (sync-word
// adoption, the BS timing broadcast) on a lazily advanced oscillator;
// slot-by-slot stepping never needs it because Advance re-detects external
// writes every slot.
func (o *Oscillator) Rebase(nowSlot int64) {
	o.segBase = o.Phase
	o.segSteps = 0
	o.segStep = o.stepSize()
	o.lastMat = o.Phase
	o.lastSlot = nowSlot
}

// LastSlot returns the slot of the oscillator's most recent Advance,
// AdvanceTo or Rebase — how far its lazily materialized state has caught up.
func (o *Oscillator) LastSlot() int64 { return o.lastSlot }

// OnPulse applies the coupling jump for one received pulse (eq. (4), second
// case). If the jump pushes the phase to the threshold the oscillator fires
// immediately — phase resets to zero and OnPulse returns true. This is the
// Mirollo–Strogatz "absorption": the receiver fires in the same instant as
// the sender and the two are synchronized from then on. The refractory
// window (which opens on every fire) bounds each oscillator to at most one
// fire per slot, so same-slot cascades always terminate. Pulses arriving
// inside the refractory window are ignored and return false.
func (o *Oscillator) OnPulse(nowSlot int64) (fired bool) {
	return o.OnPulseSent(nowSlot, nowSlot)
}

// OnPulseSent is OnPulse for a pulse transmitted at sendSlot and delivered
// at nowSlot (equal without a message adversary, which makes this a strict
// generalization). Two rules remove the arrival time from the dynamics:
//
//   - Refractoriness is judged at the send slot: a pulse whose sender fired
//     in the same round the receiver already fired in is answered no matter
//     how late the adversary delivers it — its epoch, not its arrival time,
//     decides. Once the network fires in one slot, every delayed echo of
//     that common round lands inside each receiver's (send-slot) refractory
//     window and perturbs nothing, exactly as same-slot echoes do in
//     lockstep.
//
//   - The PRC is age-compensated: the jump is evaluated at the phase the
//     receiver held when the pulse was sent (back-projected down the ramp)
//     and the flight window is replayed on top of the corrected value.
//     Naively jumping the delivery-slot phase instead turns bounded delay
//     into the textbook delayed-excitatory-coupling system, whose stable
//     attractor is a splay state, not synchrony.
//
// With both rules the phase deltas each pulse produces match the zero-delay
// dynamics (up to pulses received during the flight window), so convergence
// carries over from the lockstep analysis.
func (o *Oscillator) OnPulseSent(sendSlot, nowSlot int64) (fired bool) {
	if sendSlot < o.refractUntil {
		// lastFire is the slot the receiver's current cycle started in. A
		// pulse sent at or after it is a genuine refractory rejection — in
		// the synchronized state every echo of the common round lands
		// here. A pulse sent strictly before it is different: lockstep
		// would have delivered it before the receiver fired, so the fire
		// the receiver already performed happened at the wrong slot and
		// is retro-aligned toward the sender's beat.
		lastFire := o.refractUntil - int64(o.Refractory)
		if sendSlot >= lastFire {
			return false
		}
		return o.onPreFirePulse(lastFire, sendSlot, nowSlot)
	}
	if sendSlot != nowSlot {
		return o.onAgedPulse(sendSlot, nowSlot)
	}
	if o.Phase < o.ListenPhase {
		return false
	}
	if o.JumpsPerCycle > 0 && o.jumpsUsed >= o.JumpsPerCycle {
		return false
	}
	o.jumpsUsed++
	if o.ReachbackDelaySlots > 0 {
		// Queue the jump for the processing delay (RFA discipline);
		// no same-slot absorption cascade is possible.
		o.queued = append(o.queued, queuedJump{
			applyAt: nowSlot + int64(o.ReachbackDelaySlots),
			delta:   o.Coupling.Jump(o.Phase) - o.Phase,
		})
		return false
	}
	o.Phase = o.Coupling.Jump(o.Phase)
	if o.Phase >= Threshold-fireEpsilon {
		o.fireReset(nowSlot)
		return true
	}
	o.rebaseHere()
	return false
}

// onAgedPulse applies a pulse that spent age = nowSlot−sendSlot slots in
// flight. It reconstructs what the zero-delay dynamics would have done: the
// PRC jump is evaluated at the receiver's back-projected send-slot phase,
// and the flight window is replayed on the corrected trajectory. If that
// trajectory crosses the threshold, the receiver "fired" at a slot that has
// already passed — it cannot transmit into the past, so it performs the
// fire silently (phase reset, refractory window and jump budget anchored at
// the virtual fire slot) and resumes the ramp from there. The virtual fire
// is what makes absorption align rhythms instead of locking the receiver a
// constant age off the sender's beat, and the send-slot refractory it opens
// rejects every further echo of the same round.
func (o *Oscillator) onAgedPulse(sendSlot, nowSlot int64) bool {
	step := o.stepSize()
	// Back-projection is exact only across pure ramp slots: every jump
	// applied since sendSlot is baked into Phase and cannot be peeled off
	// linearly. Clamp the reach-back to the current segment — a pulse
	// older than the last discontinuity is evaluated at the segment
	// origin, matching lockstep's sequential application once the true
	// interleaving is unrecoverable. Without the clamp, dense coupling
	// (FST all-to-all) inflates phaseThen past the capture zone and the
	// population beat-hops forever instead of contracting.
	reach := nowSlot - sendSlot
	phaseThen := o.Phase - float64(reach)*step
	if phaseThen < 0 {
		phaseThen = 0
	}
	if phaseThen < o.ListenPhase {
		return false
	}
	if o.JumpsPerCycle > 0 && o.jumpsUsed >= o.JumpsPerCycle {
		return false
	}
	o.jumpsUsed++
	if o.ReachbackDelaySlots > 0 {
		o.queued = append(o.queued, queuedJump{
			applyAt: nowSlot + int64(o.ReachbackDelaySlots),
			delta:   o.Coupling.Jump(phaseThen) - phaseThen,
		})
		return false
	}
	jumped := o.Coupling.Jump(phaseThen)
	// First slot in the replayed window where the corrected trajectory
	// reaches the threshold; fireD == 0 is absorption at the window base
	// itself, fireD < 0 means no crossing within the flight window. The
	// window base is sendSlot when the whole flight was pure ramp, or the
	// segment origin when the clamp shortened the reach.
	base := nowSlot - reach
	fireD := int64(-1)
	if jumped >= Threshold-fireEpsilon {
		fireD = 0
	} else {
		for d := int64(1); d <= reach; d++ {
			if segPhase(jumped, d, step) >= Threshold-fireEpsilon {
				fireD = d
				break
			}
		}
	}
	if fireD < 0 {
		o.Phase = segPhase(jumped, reach, step)
		o.rebaseHere()
		return false
	}
	// The absorption replaces the fire the receiver never performed this
	// round, so it is announced as an echo — that is what lets absorption
	// cascade under delay the way same-slot avalanches do in lockstep.
	o.virtualFire(base+fireD, nowSlot, step, true)
	return false
}

// virtualFire performs a fire at a slot that has already passed: phase
// reset, refractory window and jump budget are anchored at the (past) fire
// slot and the ramp is replayed forward to nowSlot. The fire it would have
// announced belongs to a slot no broadcast can reach any more, so instead
// the adopted epoch is recorded for the engine to transmit as an echo — a
// pulse sent now but stamped with the epoch slot — which is what lets
// absorption cascade under delay the way same-slot avalanches do in
// lockstep.
func (o *Oscillator) virtualFire(at, nowSlot int64, step float64, announce bool) {
	o.fireReset(at)
	o.segStep = step
	o.segSteps = nowSlot - at
	o.Phase = segPhase(0, o.segSteps, step)
	o.lastMat = o.Phase
	o.anchorVirtual = true
	if announce {
		o.echoEpoch = at
		o.echoSet = true
	}
}

// TakeEcho consumes a pending echo request: the epoch slot of a virtual
// fire the engine should relay on the oscillator's behalf. Virtual fires
// only occur for aged pulses, so without a message adversary this never
// reports true.
func (o *Oscillator) TakeEcho() (epoch int64, ok bool) {
	if !o.echoSet {
		return 0, false
	}
	o.echoSet = false
	return o.echoEpoch, true
}

// onPreFirePulse applies a pulse sent strictly before the receiver's most
// recent fire at lastFire and delivered after it. In lockstep the pulse
// would have arrived while the receiver was still ramping toward that fire
// — the jump would have advanced it and the fire would have happened
// earlier, at or shortly after the send slot (same-slot absorption when the
// jump crosses the threshold). The broadcast at lastFire cannot be undone,
// but the rhythm can: the receiver recomputes where its fire would have
// landed on the corrected trajectory and virtually re-fires there, pulling
// its beat toward the sender's. This is what lets a cluster tighter than
// the delay bound finish collapsing: without it, every intra-cluster pulse
// arrives after the receiver's own fire and dies in the refractory window,
// freezing the cluster at its current width.
func (o *Oscillator) onPreFirePulse(lastFire, sendSlot, nowSlot int64) bool {
	step := o.stepSize()
	// The pulse is evaluated against the origin trajectory — the ramp into
	// the last fire this cycle reached by actual phase dynamics — not
	// against the current (possibly already rewritten) epoch. Measuring
	// from the current epoch lets rewrites chain: each one re-opens the
	// window one hop further back, epochs walk backward without bound, and
	// members of the same cluster scatter because the walk depends on
	// per-receiver arrival order. Anchored at the origin, every pulse
	// proposes the fire slot lockstep would have produced — the jump at
	// the send-slot phase plus the remaining climb — and the cycle adopts
	// the minimum proposal. A minimum over a set is independent of
	// delivery order and duplication, so every member of a cluster that
	// hears the same pulses lands on the same slot.
	origin := lastFire
	if o.retroFrom != 0 {
		origin = o.retroFrom
	}
	if sendSlot >= origin {
		// Between the adopted epoch and the origin: already covered by
		// the rewrite that adopted the current epoch.
		return false
	}
	// The receiver reached the threshold at origin, so its phase when the
	// pulse was sent is the threshold back-projected down the ramp.
	phaseThen := Threshold - float64(origin-sendSlot)*step
	if phaseThen < 0 {
		phaseThen = 0
	}
	if phaseThen < o.ListenPhase {
		return false
	}
	if o.JumpsPerCycle > 0 && o.jumpsUsed >= o.JumpsPerCycle {
		return false
	}
	jumped := o.Coupling.Jump(phaseThen)
	newFire := sendSlot
	if jumped < Threshold-fireEpsilon {
		// Sub-threshold: the fire advances by the jump but still needs
		// the remaining climb, in the same segment arithmetic a live
		// ramp would use.
		d := int64(1)
		for ; d < lastFire-sendSlot; d++ {
			if segPhase(jumped, d, step) >= Threshold-fireEpsilon {
				break
			}
		}
		newFire = sendSlot + d
	}
	if newFire >= lastFire {
		// The proposal does not precede the adopted epoch: moot.
		return false
	}
	// The adoption is echoed: a rewrite that stays private cannot spread.
	// Each device's window only covers the pulses it directly decodes, so
	// without re-announcing adopted epochs every device settles on the
	// minimum over its own neighborhood and near-miss beats a few slots
	// apart persist forever. Echoed, the minimum propagates transitively
	// across the hearing graph — each cycle extends the reach one hop,
	// exactly like the same-slot avalanche does in lockstep.
	o.virtualFire(newFire, nowSlot, step, true)
	o.retroFrom = origin
	return false
}

// QueuedJumps returns the number of reachback PRC corrections queued but not
// yet matured. The sharded run engine compares it (with Phase) around an
// OnPulse to decide whether the pulse changed the trajectory — a refractory
// or listen-window rejection leaves both untouched, and skipping the
// next-fire recompute for those keeps the dirty set proportional to actual
// couplings instead of deliveries.
func (o *Oscillator) QueuedJumps() int { return len(o.queued) }

// SlotsToFire returns how many Advance calls remain until the oscillator
// fires from its current phase, assuming no further pulses. It is exact —
// the prediction comes from the same segment arithmetic Advance steps with.
// A non-positive effective ramp never fires; that reports math.MaxInt.
func (o *Oscillator) SlotsToFire() int {
	at, ok := o.NextFire()
	if !ok {
		return math.MaxInt
	}
	return int(at - o.lastSlot)
}

// OrderParameter returns the Kuramoto order parameter r ∈ [0,1] of a set of
// phases (interpreted as fractions of a cycle): r = |Σ e^{i·2πθ}| / n.
// r = 1 means perfect synchrony; r ≈ 0 means phases spread uniformly.
func OrderParameter(phases []float64) float64 {
	if len(phases) == 0 {
		return 1
	}
	var re, im float64
	for _, p := range phases {
		a := 2 * math.Pi * p / Threshold
		re += math.Cos(a)
		im += math.Sin(a)
	}
	n := float64(len(phases))
	r := math.Hypot(re, im) / n
	if r > 1 { // float rounding can overshoot the mathematical bound
		r = 1
	}
	return r
}

// PhaseSpread returns the smallest arc (as a fraction of the cycle, in
// [0, 0.5]) containing the pairwise circular distance of the extreme phases.
// Zero means all phases identical.
func PhaseSpread(phases []float64) float64 {
	if len(phases) < 2 {
		return 0
	}
	// Circular spread: 1 - largest gap between consecutive sorted phases.
	sorted := make([]float64, len(phases))
	for i, p := range phases {
		sorted[i] = math.Mod(p/Threshold, 1)
		if sorted[i] < 0 {
			sorted[i] += 1
		}
	}
	insertionSort(sorted)
	largestGap := 1 - sorted[len(sorted)-1] + sorted[0]
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > largestGap {
			largestGap = g
		}
	}
	return 1 - largestGap
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// SyncDetector decides network-wide synchrony from fire events: the network
// is synchronized once every one of n devices fires within a window of
// WindowSlots, for StableRounds consecutive periods.
type SyncDetector struct {
	// N is the number of devices that must fire together.
	N int
	// WindowSlots is the maximum slot distance between the first and last
	// fire of a round for the round to count as synchronized.
	WindowSlots int64
	// StableRounds is how many consecutive synchronized rounds are needed.
	StableRounds int

	roundStart int64
	roundSeen  int
	stable     int
	active     bool
	synced     bool
	syncedAt   int64
}

// NewSyncDetector returns a detector with the given parameters; zero
// WindowSlots means same-slot synchrony, stableRounds < 1 is coerced to 1.
func NewSyncDetector(n int, windowSlots int64, stableRounds int) *SyncDetector {
	if stableRounds < 1 {
		stableRounds = 1
	}
	return &SyncDetector{N: n, WindowSlots: windowSlots, StableRounds: stableRounds}
}

// OnFire records that one device fired in the given slot. Call once per
// device per fire. Returns true once synchrony has been achieved.
func (d *SyncDetector) OnFire(slot int64) bool {
	if d.synced {
		return true
	}
	switch {
	case !d.active:
		d.active = true
		d.roundStart = slot
		d.roundSeen = 0
	case slot-d.roundStart > d.WindowSlots:
		// Window exceeded: this fire starts a new round and breaks the streak.
		d.stable = 0
		d.roundStart = slot
		d.roundSeen = 0
	}
	// The fire that opens a round can also close it: a live set of one
	// device is synchronized by every fire.
	d.roundSeen++
	if d.roundSeen == d.N {
		d.stable++
		d.active = false
		if d.stable >= d.StableRounds {
			d.synced = true
			d.syncedAt = slot
		}
	}
	return d.synced
}

// Synced reports whether synchrony has been detected, and at which slot.
func (d *SyncDetector) Synced() (bool, int64) { return d.synced, d.syncedAt }
