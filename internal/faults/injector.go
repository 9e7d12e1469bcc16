package faults

import (
	"sort"

	"repro/internal/units"
	"repro/internal/xrand"
)

// Injector is a validated plan compiled for consumption by a run engine:
// actions sorted into a deterministic application order, a cursor that pops
// due actions exactly once, and the seeded loss stream. Build one per run
// (the cursor is run state); a nil *Injector disables the layer entirely.
type Injector struct {
	actions []Action // sorted by (At, Device)
	cursor  int
	outages []Outage
	// partitions are the plan's splits compiled for O(1) side lookup.
	partitions []partition
	loss       float64
	lossSrc    *xrand.Stream
}

// partition is one compiled network split over [at, end).
type partition struct {
	at, end int64
	in      map[int]bool
}

// NewInjector compiles a plan. lossSrc is the dedicated "faults" stream; it
// is only ever drawn from when the plan's LossRate is positive, so an empty
// or loss-free plan leaves every other stream's draw sequence untouched.
func NewInjector(p *Plan, lossSrc *xrand.Stream) *Injector {
	if p == nil {
		return nil
	}
	inj := &Injector{
		actions: append([]Action(nil), p.Actions...),
		outages: append([]Outage(nil), p.Outages...),
		loss:    p.LossRate,
		lossSrc: lossSrc,
	}
	for _, pt := range p.Partitions {
		in := make(map[int]bool, len(pt.Group))
		for _, id := range pt.Group {
			in[id] = true
		}
		inj.partitions = append(inj.partitions, partition{at: pt.At, end: pt.At + pt.Slots, in: in})
	}
	sort.Slice(inj.actions, func(i, j int) bool {
		if inj.actions[i].At != inj.actions[j].At {
			return inj.actions[i].At < inj.actions[j].At
		}
		return inj.actions[i].Device < inj.actions[j].Device
	})
	return inj
}

// InitialDead returns the devices that are absent at slot 0 (those whose
// first membership action is a join).
func (inj *Injector) InitialDead() []int {
	var out []int
	seen := make(map[int]bool)
	for _, a := range inj.actions {
		switch a.Kind {
		case KindJoin:
			if !seen[a.Device] {
				out = append(out, a.Device)
			}
			seen[a.Device] = true
		case KindCrash, KindRecover:
			// An earlier crash/recover means the device started alive.
			seen[a.Device] = true
		}
	}
	return out
}

// NextBoundary returns the slot of the earliest not-yet-applied action or
// partition edge (start or lift) after `after`, for folding into the event
// engine's next-step horizon. Outages and loss need no boundaries: they only
// filter deliveries at slots where something fires anyway. Partition edges
// do — the protocols' repair scheduling observes the split starting and
// lifting even when no oscillator fires at those slots.
func (inj *Injector) NextBoundary(after units.Slot) (units.Slot, bool) {
	best, ok := inj.NextPartitionEdge(after)
	for i := inj.cursor; i < len(inj.actions); i++ {
		if at := units.Slot(inj.actions[i].At); at > after {
			if !ok || at < best {
				best, ok = at, true
			}
			break
		}
	}
	return best, ok
}

// NextPartitionEdge returns the slot of the earliest partition start or lift
// after `after`: the slots at which the set of links a split blocks changes.
// Safe on a nil injector.
func (inj *Injector) NextPartitionEdge(after units.Slot) (units.Slot, bool) {
	if inj == nil {
		return 0, false
	}
	var best units.Slot
	ok := false
	for _, pt := range inj.partitions {
		for _, edge := range [2]int64{pt.at, pt.end} {
			if at := units.Slot(edge); at > after && (!ok || at < best) {
				best, ok = at, true
			}
		}
	}
	return best, ok
}

// PopDue returns the actions due at or before slot, in (At, Device) order,
// advancing the cursor past them. The returned slice aliases the injector's
// storage and is valid until the next call.
func (inj *Injector) PopDue(slot units.Slot) []Action {
	start := inj.cursor
	for inj.cursor < len(inj.actions) && units.Slot(inj.actions[inj.cursor].At) <= slot {
		inj.cursor++
	}
	return inj.actions[start:inj.cursor]
}

// Pending reports whether scheduled actions remain unapplied.
func (inj *Injector) Pending() bool { return inj.cursor < len(inj.actions) }

// Cursor returns the number of actions already applied — the injector's only
// mutable state (the loss stream's position is tracked by the stream factory).
func (inj *Injector) Cursor() int { return inj.cursor }

// SetCursor repositions the action cursor; out-of-range values are clamped.
// Used when restoring a checkpoint over a freshly compiled plan.
func (inj *Injector) SetCursor(c int) {
	if c < 0 {
		c = 0
	}
	if c > len(inj.actions) {
		c = len(inj.actions)
	}
	inj.cursor = c
}

// Filters reports whether the injector can ever drop a delivery — false for
// plans with neither outages, partitions nor loss, letting the engine skip
// the per-delivery filter entirely (the faults-off hot path).
func (inj *Injector) Filters() bool {
	return inj.loss > 0 || len(inj.outages) > 0 || len(inj.partitions) > 0
}

// Drops decides whether the delivery from→to at slot is lost. Outage and
// partition matching are checked first (pure schedule lookups, no
// randomness); only then, and only when LossRate > 0, is the loss stream
// drawn — once per surviving delivery, in delivery-list order, which the
// engines keep invariant across engine kind and worker count.
func (inj *Injector) Drops(from, to int, slot units.Slot) bool {
	for _, o := range inj.outages {
		if int64(slot) < o.At || int64(slot) >= o.At+o.Slots {
			continue
		}
		if o.B == -1 {
			if from == o.A || to == o.A {
				return true
			}
			continue
		}
		if (from == o.A && to == o.B) || (from == o.B && to == o.A) {
			return true
		}
	}
	if inj.PartitionBlocked(from, to, int64(slot)) {
		return true
	}
	if inj.loss > 0 {
		return inj.lossSrc.Float64() < inj.loss
	}
	return false
}

// PartitionBlocked reports whether an active partition separates from and to
// at slot — the link cannot carry traffic in either direction. Safe on a nil
// injector.
func (inj *Injector) PartitionBlocked(from, to int, slot int64) bool {
	if inj == nil {
		return false
	}
	for _, pt := range inj.partitions {
		if slot >= pt.at && slot < pt.end && pt.in[from] != pt.in[to] {
			return true
		}
	}
	return false
}

// PartitionActive reports whether any partition is splitting the network at
// slot. Safe on a nil injector.
func (inj *Injector) PartitionActive(slot units.Slot) bool {
	if inj == nil {
		return false
	}
	for _, pt := range inj.partitions {
		if int64(slot) >= pt.at && int64(slot) < pt.end {
			return true
		}
	}
	return false
}

// PartitionEnd returns the first slot at which every scheduled partition has
// lifted (0 when the plan has none). The self-healing protocols refuse to
// declare a run finished before it: a network split mid-run must be
// observed healing, not raced past. Safe on a nil injector.
func (inj *Injector) PartitionEnd() units.Slot {
	if inj == nil {
		return 0
	}
	var end int64
	for _, pt := range inj.partitions {
		if pt.end > end {
			end = pt.end
		}
	}
	return units.Slot(end)
}
