// Package faults is the deterministic fault-injection layer: a
// schema-versioned, JSON-loadable schedule of membership faults (node
// crashes, recoveries, mid-run joins), clock jumps, burst link outages and a
// per-message loss rate, compiled into an Injector the run engines consult.
//
// Determinism contract: the schedule itself is fixed data, and the only
// random element — the per-message loss draw — comes from a dedicated seeded
// stream consumed in delivery-list order, which the run engine keeps
// invariant across shard layouts and worker counts. A run with a fault plan
// is therefore bit-identical across worker counts, and a run with
// a nil or empty plan is bit-identical to a run without the faults layer at
// all (no draw ever happens: the loss stream is only touched when
// LossRate > 0).
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// PlanSchema versions the fault-schedule JSON layout; Validate rejects plans
// written by a different schema.
const PlanSchema = 1

// Action kinds. A "join" device is absent from the start of the run and
// powers on at its slot; "recover" re-powers a previously crashed device;
// "clock-jump" shifts a live device's oscillator phase by Delta cycles.
const (
	KindCrash     = "crash"
	KindRecover   = "recover"
	KindJoin      = "join"
	KindClockJump = "clock-jump"
)

// Action is one scheduled membership or clock fault.
type Action struct {
	// Kind is one of KindCrash, KindRecover, KindJoin, KindClockJump.
	Kind string `json:"kind"`
	// At is the slot the action applies (1-based, ≤ the run's slot cap).
	At int64 `json:"at"`
	// Device is the target device id.
	Device int `json:"device"`
	// Delta is the phase shift in cycles for clock-jump actions (may be
	// negative; applied modulo 1). Ignored for other kinds.
	Delta float64 `json:"delta,omitempty"`
}

// Outage is a burst link blockage: for Slots slots starting at At, every
// message on the matched link(s) is dropped. B = -1 matches every link of A
// (a node-level radio blockage); otherwise the (A,B) pair is matched in both
// directions.
type Outage struct {
	At    int64 `json:"at"`
	Slots int64 `json:"slots"`
	A     int   `json:"a"`
	B     int   `json:"b"`
}

// Partition is one scheduled network split: for Slots slots starting at At,
// the devices in Group and the rest of the network cannot hear each other —
// every message with exactly one endpoint in Group drops, in both
// directions — while traffic within either side flows normally. Merge
// handshakes honour the same split (Injector.PartitionBlocked), so the
// self-healing protocols fragment and re-join instead of merging across a
// link that cannot carry traffic.
type Partition struct {
	At    int64 `json:"at"`
	Slots int64 `json:"slots"`
	Group []int `json:"group"`
}

// Plan is the complete fault schedule of one run.
type Plan struct {
	// Version must equal PlanSchema.
	Version int `json:"version"`
	// LossRate is the independent per-message drop probability in [0,1]
	// applied to every PS delivery (0 disables the loss draw entirely).
	LossRate float64 `json:"loss_rate,omitempty"`
	// Actions are the scheduled membership/clock faults.
	Actions []Action `json:"actions,omitempty"`
	// Outages are the burst link blockages.
	Outages []Outage `json:"outages,omitempty"`
	// Partitions are the scheduled network splits.
	Partitions []Partition `json:"partitions,omitempty"`
}

// Read decodes a plan from r, rejecting unknown fields so typos in
// hand-written schedules fail loud instead of silently doing nothing.
func Read(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	// Trailing garbage after the plan object is a malformed file.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("faults: trailing data after plan object")
	}
	return &p, nil
}

// Load reads and decodes a plan file.
func Load(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return p, nil
}

// Empty reports whether the plan (possibly nil) schedules nothing at all.
func (p *Plan) Empty() bool {
	return p == nil || (p.LossRate == 0 && len(p.Actions) == 0 && len(p.Outages) == 0 && len(p.Partitions) == 0)
}

// Validate checks the plan against a run shape: n devices, maxSlots slot
// cap. It verifies the schema version, every action kind, every id and slot
// range, rejects duplicate (At, Device) actions and multiple joins per
// device, and checks the membership sequence per device is coherent (a
// device cannot recover while alive or crash while already down).
func (p *Plan) Validate(n int, maxSlots int64) error {
	if p == nil {
		return nil
	}
	if p.Version != PlanSchema {
		return fmt.Errorf("faults: plan schema %d, want %d", p.Version, PlanSchema)
	}
	if math.IsNaN(p.LossRate) || p.LossRate < 0 || p.LossRate > 1 {
		return fmt.Errorf("faults: loss_rate %v outside [0,1]", p.LossRate)
	}
	seen := make(map[[2]int64]bool, len(p.Actions))
	joins := make(map[int]bool)
	for i, a := range p.Actions {
		switch a.Kind {
		case KindCrash, KindRecover, KindJoin, KindClockJump:
		default:
			return fmt.Errorf("faults: action %d: unknown kind %q", i, a.Kind)
		}
		if a.At < 1 || a.At > maxSlots {
			return fmt.Errorf("faults: action %d: at=%d outside [1,%d]", i, a.At, maxSlots)
		}
		if a.Device < 0 || a.Device >= n {
			return fmt.Errorf("faults: action %d: device %d outside [0,%d)", i, a.Device, n)
		}
		if a.Kind == KindClockJump {
			if math.IsNaN(a.Delta) || math.IsInf(a.Delta, 0) {
				return fmt.Errorf("faults: action %d: non-finite delta %v", i, a.Delta)
			}
		}
		k := [2]int64{a.At, int64(a.Device)}
		if seen[k] {
			return fmt.Errorf("faults: action %d: duplicate action at slot %d for device %d", i, a.At, a.Device)
		}
		seen[k] = true
		if a.Kind == KindJoin {
			if joins[a.Device] {
				return fmt.Errorf("faults: action %d: device %d joins twice", i, a.Device)
			}
			joins[a.Device] = true
		}
	}
	if err := p.validateMembership(); err != nil {
		return err
	}
	for i, o := range p.Outages {
		if o.Slots < 1 {
			return fmt.Errorf("faults: outage %d: slots=%d < 1", i, o.Slots)
		}
		if o.At < 1 || o.At > maxSlots {
			return fmt.Errorf("faults: outage %d: at=%d outside [1,%d]", i, o.At, maxSlots)
		}
		if o.A < 0 || o.A >= n {
			return fmt.Errorf("faults: outage %d: device a=%d outside [0,%d)", i, o.A, n)
		}
		if o.B != -1 && (o.B < 0 || o.B >= n || o.B == o.A) {
			return fmt.Errorf("faults: outage %d: device b=%d must be -1 or a distinct id in [0,%d)", i, o.B, n)
		}
	}
	for i, pt := range p.Partitions {
		if pt.Slots < 1 {
			return fmt.Errorf("faults: partition %d: slots=%d < 1", i, pt.Slots)
		}
		if pt.At < 1 || pt.At > maxSlots {
			return fmt.Errorf("faults: partition %d: at=%d outside [1,%d]", i, pt.At, maxSlots)
		}
		if len(pt.Group) == 0 {
			return fmt.Errorf("faults: partition %d: empty group", i)
		}
		if len(pt.Group) >= n {
			return fmt.Errorf("faults: partition %d: group of %d does not split %d devices", i, len(pt.Group), n)
		}
		seenDev := make(map[int]bool, len(pt.Group))
		for _, id := range pt.Group {
			if id < 0 || id >= n {
				return fmt.Errorf("faults: partition %d: device %d outside [0,%d)", i, id, n)
			}
			if seenDev[id] {
				return fmt.Errorf("faults: partition %d: duplicate device %d", i, id)
			}
			seenDev[id] = true
		}
	}
	return nil
}

// validateMembership replays each device's crash/recover/join sequence in
// slot order and rejects incoherent transitions.
func (p *Plan) validateMembership() error {
	byDev := make(map[int][]Action)
	for _, a := range p.Actions {
		if a.Kind == KindClockJump {
			continue
		}
		byDev[a.Device] = append(byDev[a.Device], a)
	}
	for dev, acts := range byDev {
		sort.Slice(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
		alive := true
		for _, a := range acts {
			if a.Kind == KindJoin && a.At != acts[0].At {
				return fmt.Errorf("faults: device %d: join must be its first membership action", dev)
			}
		}
		if acts[0].Kind == KindJoin {
			alive = false // absent until the join fires
		}
		for _, a := range acts {
			switch a.Kind {
			case KindCrash:
				if !alive {
					return fmt.Errorf("faults: device %d: crash at slot %d while already down", dev, a.At)
				}
				alive = false
			case KindRecover, KindJoin:
				if alive {
					return fmt.Errorf("faults: device %d: %s at slot %d while already up", dev, a.Kind, a.At)
				}
				alive = true
			}
		}
	}
	return nil
}

// String summarizes the plan for logs and CLI output.
func (p *Plan) String() string {
	if p.Empty() {
		return "faults: empty plan"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %d actions, %d outages", len(p.Actions), len(p.Outages))
	if len(p.Partitions) > 0 {
		fmt.Fprintf(&b, ", %d partitions", len(p.Partitions))
	}
	if p.LossRate > 0 {
		fmt.Fprintf(&b, ", loss %.3f", p.LossRate)
	}
	return b.String()
}
