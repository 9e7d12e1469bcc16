// Package asyncnet is the deterministic bounded-asynchrony message runtime:
// a transport layer interposed between the engine's broadcast resolution and
// protocol delivery. Every resolved delivery is enqueued with a delivery
// slot drawn from a seeded, bounded delay distribution on a dedicated xrand
// stream, with optional reordering, duplication and per-message loss;
// deliveries drain at slot boundaries through the existing phase pipeline.
//
// Determinism contract: all adversary draws happen on one dedicated stream,
// consumed in delivery-list order during the sequential enqueue step — never
// inside the parallel sender-evaluation phase — so a run with an adversary
// plan is bit-identical across shard layouts and worker counts. Drained deliveries are handed back sorted by (receiver, enqueue
// sequence), which under capture-mode resolution (receiver-ascending output,
// required whenever a plan is configured) makes the degenerate plan — zero
// delay, no duplication, no loss — a literal pass-through: the engine sees
// the exact slice the resolver produced, bit-identical to running without
// the layer at all.
package asyncnet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// PlanSchema versions the asynchrony-plan JSON layout; Validate rejects
// plans written by a different schema.
const PlanSchema = 1

// MaxDelayCap bounds MaxDelaySlots at the loader: the adversary is a
// *bounded*-asynchrony model, and a delay rivaling a whole run is a typo,
// not a configuration. Engine-level validation tightens this further
// (the delay must stay below one firing period).
const MaxDelayCap = 1 << 20

// Plan configures the message adversary of one run.
type Plan struct {
	// Version must equal PlanSchema.
	Version int `json:"version"`
	// MaxDelaySlots is the inclusive upper bound on per-message delivery
	// delay, in slots. 0 keeps every message in its send slot.
	MaxDelaySlots int `json:"max_delay_slots"`
	// Reorder draws each message's delay uniformly from
	// [0, MaxDelaySlots]; when false every message is delayed by exactly
	// MaxDelaySlots (a pure latency shift that preserves send order).
	Reorder bool `json:"reorder,omitempty"`
	// DupRate is the probability a message is duplicated once, the copy
	// delayed independently (0 disables the draw).
	DupRate float64 `json:"dup_rate,omitempty"`
	// LossRate is the independent per-message transport-loss probability
	// (0 disables the draw). This is adversary loss at the message layer,
	// on top of any fault-plan channel loss.
	LossRate float64 `json:"loss_rate,omitempty"`
}

// Read decodes a plan from r, rejecting unknown fields so typos in
// hand-written plans fail loud instead of silently doing nothing.
func Read(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("asyncnet: parse plan: %w", err)
	}
	// Trailing garbage after the plan object is a malformed file.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("asyncnet: trailing data after plan object")
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
		return nil, fmt.Errorf("asyncnet: %s: %w", path, err)
	}
	return p, nil
}

// Validate checks the plan's internal consistency: schema version, a
// finite non-negative bounded delay, and rates inside [0,1].
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.Version != PlanSchema {
		return fmt.Errorf("asyncnet: plan schema %d, want %d", p.Version, PlanSchema)
	}
	if p.MaxDelaySlots < 0 {
		return fmt.Errorf("asyncnet: negative max_delay_slots %d", p.MaxDelaySlots)
	}
	if p.MaxDelaySlots > MaxDelayCap {
		return fmt.Errorf("asyncnet: max_delay_slots %d exceeds cap %d (delay must be bounded)", p.MaxDelaySlots, MaxDelayCap)
	}
	if err := checkRate("dup_rate", p.DupRate); err != nil {
		return err
	}
	if err := checkRate("loss_rate", p.LossRate); err != nil {
		return err
	}
	return nil
}

func checkRate(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("asyncnet: %s %v outside [0,1]", name, v)
	}
	return nil
}

// Degenerate reports whether the plan (possibly nil) perturbs nothing:
// no delay, no duplication, no loss. A degenerate plan consumes zero
// random draws and delivers every message in its send slot, untouched.
func (p *Plan) Degenerate() bool {
	return p == nil || (p.MaxDelaySlots == 0 && p.DupRate == 0 && p.LossRate == 0)
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	if p.Degenerate() {
		return "asyncnet: degenerate (lockstep)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "asyncnet: max delay %d slots", p.MaxDelaySlots)
	if p.Reorder {
		b.WriteString(", reorder")
	}
	if p.DupRate > 0 {
		fmt.Fprintf(&b, ", dup %.4g", p.DupRate)
	}
	if p.LossRate > 0 {
		fmt.Fprintf(&b, ", loss %.4g", p.LossRate)
	}
	return b.String()
}
