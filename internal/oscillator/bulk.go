// Struct-of-arrays bulk view over a roster of oscillators.
//
// Slot stepping's scaling problem is not the oscillator maths — it is the
// per-slot O(n) pointer chase over scattered *Oscillator objects, almost all
// of which do nothing in any given slot. Bulk keeps the one field the hot
// path actually scans — the exact next-fire slot — in a contiguous int64
// array, so deciding "does anything in this range fire at slot s?" is a
// linear scan over cache-resident integers (NextFireMin) and advancing a
// range through a slot touches only the members that fire (AdvanceAll).
//
// The mutable segment state (Phase, segment anchor, queued jumps) stays
// object-resident on purpose: protocols poke *Oscillator directly through
// the engine hooks, and duplicating that state into arrays would buy a
// coherence problem for fields that are only read at discontinuities. The
// SoA array holds exactly the scan state; everything else materializes
// lazily through AdvanceTo, which is bit-identical to slot-by-slot Advance
// by construction (see the segment arithmetic notes on Oscillator).
package oscillator

import "math"

// NeverFires is the next-fire sentinel for members that are descheduled
// (dropped) or whose effective ramp can never reach the threshold. It
// compares larger than any real slot.
const NeverFires = int64(math.MaxInt64)

// Bulk is a struct-of-arrays view over a fixed roster of oscillators: a
// contiguous cache of each member's exact next free-running fire slot, kept
// coherent by the caller refreshing members whose trajectory changed (pulse
// coupling, fire reset, external phase writes). Member indices are positions
// in the roster, not device ids — callers choosing a spatially sharded
// roster order get per-shard contiguity for free.
type Bulk struct {
	oscs []*Oscillator
	nf   []int64
	dead []bool
}

// NewBulk builds the bulk view over the roster and computes every member's
// next-fire slot. The roster is aliased, not copied.
func NewBulk(oscs []*Oscillator) *Bulk {
	b := &Bulk{
		oscs: oscs,
		nf:   make([]int64, len(oscs)),
		dead: make([]bool, len(oscs)),
	}
	for i := range oscs {
		b.Refresh(i)
	}
	return b
}

// Len returns the roster size.
func (b *Bulk) Len() int { return len(b.oscs) }

// Osc returns member i's oscillator.
func (b *Bulk) Osc(i int) *Oscillator { return b.oscs[i] }

// NextFire returns member i's cached next-fire slot (NeverFires when
// descheduled or free-running forever).
func (b *Bulk) NextFire(i int) int64 { return b.nf[i] }

// Refresh recomputes member i's next-fire slot from its oscillator state and
// returns it. Call after anything that changes the member's trajectory: an
// own fire, a coupling jump, a queued reachback jump, an external Phase
// write (after Rebase), or a rate change.
func (b *Bulk) Refresh(i int) int64 {
	if b.dead[i] {
		return NeverFires
	}
	if at, ok := b.oscs[i].NextFire(); ok {
		b.nf[i] = at
	} else {
		b.nf[i] = NeverFires
	}
	return b.nf[i]
}

// Drop deschedules member i (powered off): it no longer fires, advances or
// materializes until Revive.
func (b *Bulk) Drop(i int) {
	b.dead[i] = true
	b.nf[i] = NeverFires
}

// Revive reschedules a dropped member and returns its recomputed next fire.
func (b *Bulk) Revive(i int) int64 {
	b.dead[i] = false
	return b.Refresh(i)
}

// Dropped reports whether member i is descheduled.
func (b *Bulk) Dropped(i int) bool { return b.dead[i] }

// NextFireMin returns the earliest cached next-fire slot over members
// [lo, hi) — the per-shard scheduling key. A contiguous int64 scan, so a
// shard's "anything due?" check costs a handful of cache lines.
func (b *Bulk) NextFireMin(lo, hi int) int64 {
	min := NeverFires
	for _, at := range b.nf[lo:hi] {
		if at < min {
			min = at
		}
	}
	return min
}

// AdvanceAll advances members [lo, hi) through slot and appends the member
// indices that fire, in roster order. It is equivalent to calling Advance
// once per slot on every live member — bit for bit, including fire resets
// and queued reachback-jump maturation — but touches only the members whose
// cached next fire is due; everyone else's phase stays lazily materialized
// on its unchanged trajectory (AdvanceTo catches it up on demand).
//
// Fired members' cached next-fire slots are left stale on purpose: the
// caller refreshes them after the slot's pulse cascade settles, folding the
// fire reset and any coupling received in the same slot into one recompute.
// A cached entry strictly before slot means the caller skipped a non-inert
// slot — the same contract violation AdvanceTo fails loud on.
func (b *Bulk) AdvanceAll(lo, hi int, slot int64, fired []int) []int {
	for i := lo; i < hi; i++ {
		at := b.nf[i]
		if at > slot {
			continue
		}
		if at < slot {
			panic("oscillator: Bulk stepped past a scheduled fire")
		}
		if !b.oscs[i].AdvanceTo(slot) {
			panic("oscillator: scheduled bulk fire did not happen")
		}
		fired = append(fired, i)
	}
	return fired
}

// MaterializeAll catches every live member in [lo, hi) up to slot without
// stepping past a fire — for phase snapshots and sampling boundaries, which
// must read the same values slot-by-slot stepping leaves behind.
func (b *Bulk) MaterializeAll(lo, hi int, slot int64) {
	for i := lo; i < hi; i++ {
		if !b.dead[i] {
			b.oscs[i].AdvanceTo(slot)
		}
	}
}
