package asyncnet

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/rach"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Counters aggregates the adversary's observable effects over a run.
type Counters struct {
	// Delayed counts messages enqueued with a non-zero delivery delay.
	Delayed uint64
	// Duplicated counts adversary-injected copies.
	Duplicated uint64
	// Lost counts messages dropped by the transport-loss draw.
	Lost uint64
	// Rejected counts deliveries discarded by the receiver-side
	// duplicate/stale filter (late copies of an already-accepted pulse).
	Rejected uint64
	// Peak is the high-water mark of in-flight messages.
	Peak int
}

// entry is one in-flight message: the resolved delivery, the slot it
// becomes due, and a global enqueue sequence number that makes drain order
// total (and, in the same-slot case, identical to resolver output order).
type entry struct {
	At  units.Slot
	Seq uint64
	Del rach.Delivery
}

// linkKey identifies a directed (sender, receiver) link for the
// duplicate/stale rejection filter.
type linkKey struct {
	From, To int
}

// Queue is the deterministic in-flight message store of one run. It is not
// safe for concurrent use; the engine calls it only from the sequential
// phase that follows broadcast resolution.
type Queue struct {
	plan Plan
	src  *xrand.Stream

	inflight []entry
	// minAt caches the exact earliest delivery slot among inflight
	// entries, so the per-slot HasDue/NextDue probes are O(1); it is
	// meaningless while inflight is empty.
	minAt units.Slot
	seq   uint64
	// last holds, per directed link, the epoch stamp of the newest
	// accepted message: the duplicate/stale filter drops a delivery
	// carrying the same (sender, epoch) pair again — the adversary's
	// duplicate copies and any late replay of an epoch the receiver
	// already accepted from that sender. Fresh epochs pass in either
	// direction: absorption-echo traffic legitimately re-announces
	// epochs older than the sender's previous transmission, so the
	// filter keys on epoch equality, not monotonicity; order hardening
	// against genuinely old epochs lives in the oscillator, whose
	// min-epoch adoption rule is idempotent under replay.
	last map[linkKey]units.Slot
	ctr  Counters

	due []entry         // scratch: entries due this drain
	out []rach.Delivery // scratch: drained deliveries
}

// NewQueue builds the queue for a plan. src is the dedicated adversary
// stream; it is only ever touched when the plan schedules a draw, so a
// degenerate plan leaves the stream's cursor untouched forever. A nil plan
// yields a degenerate queue.
func NewQueue(p *Plan, src *xrand.Stream) *Queue {
	q := &Queue{src: src}
	if p != nil {
		q.plan = *p
	} else {
		q.plan.Version = PlanSchema
	}
	if !q.plan.Degenerate() {
		q.last = make(map[linkKey]units.Slot)
	}
	return q
}

// Degenerate reports whether this queue passes every delivery through
// untouched.
func (q *Queue) Degenerate() bool { return q.plan.Degenerate() }

// Counters returns the adversary-effect counters accumulated so far.
func (q *Queue) Counters() Counters { return q.ctr }

// InFlight returns the number of messages currently queued for a future
// slot.
func (q *Queue) InFlight() int { return len(q.inflight) }

// delay draws one message's delivery delay. With reordering the delay is
// uniform over [0, MaxDelaySlots]; otherwise it is the constant bound (no
// draw is consumed, keeping the stream independent of message volume).
func (q *Queue) delay() units.Slot {
	if q.plan.MaxDelaySlots == 0 {
		return 0
	}
	if !q.plan.Reorder {
		return units.Slot(q.plan.MaxDelaySlots)
	}
	return units.Slot(q.src.Intn(q.plan.MaxDelaySlots + 1))
}

// Cycle runs one transport cycle at slot: the freshly resolved deliveries
// (already fault-filtered) are enqueued — each drawing loss, delay and
// duplication in delivery-list order on the adversary stream — and every
// in-flight message due at or before slot is drained, passed through the
// duplicate/stale filter, and returned sorted by (receiver, enqueue
// sequence). The returned slice is owned by the queue and valid until the
// next Cycle.
//
// Degenerate queues return dels untouched: zero draws, zero copies, zero
// reordering — the bit-identity anchor for the lockstep differential suite.
func (q *Queue) Cycle(dels []rach.Delivery, slot units.Slot) []rach.Delivery {
	if q.plan.Degenerate() {
		return dels
	}
	for i := range dels {
		if q.plan.LossRate > 0 && q.src.Float64() < q.plan.LossRate {
			q.ctr.Lost++
			continue
		}
		d := q.delay()
		if d > 0 {
			q.ctr.Delayed++
		}
		q.push(entry{At: slot + d, Seq: q.seq, Del: dels[i]})
		q.seq++
		if q.plan.DupRate > 0 && q.src.Float64() < q.plan.DupRate {
			q.ctr.Duplicated++
			q.push(entry{At: slot + q.delay(), Seq: q.seq, Del: dels[i]})
			q.seq++
		}
	}
	if len(q.inflight) > q.ctr.Peak {
		q.ctr.Peak = len(q.inflight)
	}

	// Split in-flight into due-now and still-pending, re-deriving the
	// exact earliest pending slot on the way.
	due := q.due[:0]
	kept := q.inflight[:0]
	var minAt units.Slot
	for _, e := range q.inflight {
		if e.At <= slot {
			due = append(due, e)
			continue
		}
		if len(kept) == 0 || e.At < minAt {
			minAt = e.At
		}
		kept = append(kept, e)
	}
	q.inflight = kept
	q.minAt = minAt
	q.due = due

	// Drain in (receiver, sequence) order: receiver-contiguous for the
	// sharded engine's run grouping, and within a receiver the enqueue
	// order — which for same-slot traffic is exactly the capture
	// resolver's output order.
	sort.Slice(due, func(i, j int) bool {
		if due[i].Del.To != due[j].Del.To {
			return due[i].Del.To < due[j].Del.To
		}
		return due[i].Seq < due[j].Seq
	})
	out := q.out[:0]
	for _, e := range due {
		k := linkKey{From: e.Del.Msg.From, To: e.Del.To}
		if last, seen := q.last[k]; seen && e.Del.Msg.Slot == last {
			q.ctr.Rejected++
			continue
		}
		q.last[k] = e.Del.Msg.Slot
		out = append(out, e.Del)
	}
	q.out = out
	return out
}

// push enqueues one in-flight entry, maintaining the cached minimum.
func (q *Queue) push(e entry) {
	if len(q.inflight) == 0 || e.At < q.minAt {
		q.minAt = e.At
	}
	q.inflight = append(q.inflight, e)
}

// HasDue reports whether any in-flight message is due at or before slot.
// Engines use it to run a delivery wave on slots with no local fires.
func (q *Queue) HasDue(slot units.Slot) bool {
	return len(q.inflight) > 0 && q.minAt <= slot
}

// NextDue returns the earliest in-flight delivery slot strictly after
// `after`, for horizon folding in the run engine. ok is false when
// nothing is queued.
func (q *Queue) NextDue(after units.Slot) (units.Slot, bool) {
	if len(q.inflight) == 0 {
		return 0, false
	}
	if q.minAt <= after {
		return after + 1, true // overdue: deliver at the next stepped slot
	}
	return q.minAt, true
}

// State is the queue's checkpointable form: every in-flight message, the
// enqueue sequence cursor, the duplicate/stale filter table and the
// counters. The adversary stream's cursor itself is checkpointed with every
// other named stream by the engine's stream-cursor capture.
type State struct {
	Seq      uint64    `json:"seq"`
	InFlight []Flight  `json:"in_flight,omitempty"`
	Accepted LinkSlots `json:"accepted"`
	Counters Counters  `json:"counters"`
}

// Flight is one serialized in-flight message.
type Flight struct {
	At   int64   `json:"at"`
	Seq  uint64  `json:"seq"`
	To   int     `json:"to"`
	From int     `json:"from"`
	Kind int     `json:"kind"`
	Svc  int     `json:"svc"`
	Slot int64   `json:"slot"`
	RSSI float64 `json:"rssi"`
	Code int     `json:"codec"`
}

// LinkSlots is the duplicate-filter table as parallel columns, one row per
// directed link in (From, To) order: the newest accepted send slot of the
// link From→To.
type LinkSlots struct {
	From []int   `json:"from"`
	To   []int   `json:"to"`
	Slot []int64 `json:"slot"`
}

// State captures the queue. In-flight messages are emitted in (At, Seq)
// order and the filter table in (From, To) order so the snapshot is
// canonical: two equal queues serialize byte-identically.
func (q *Queue) State() *State {
	st := &State{Seq: q.seq, Counters: q.ctr}
	for _, e := range q.inflight {
		st.InFlight = append(st.InFlight, Flight{
			At:   int64(e.At),
			Seq:  e.Seq,
			To:   e.Del.To,
			From: e.Del.Msg.From,
			Kind: int(e.Del.Msg.Kind),
			Svc:  e.Del.Msg.Service,
			Slot: int64(e.Del.Msg.Slot),
			RSSI: float64(e.Del.Msg.RSSI),
			Code: int(e.Del.Msg.Codec),
		})
	}
	sort.Slice(st.InFlight, func(i, j int) bool {
		if st.InFlight[i].At != st.InFlight[j].At {
			return st.InFlight[i].At < st.InFlight[j].At
		}
		return st.InFlight[i].Seq < st.InFlight[j].Seq
	})
	type row struct {
		k linkKey
		s units.Slot
	}
	rows := make([]row, 0, len(q.last))
	for k, s := range q.last {
		rows = append(rows, row{k, s})
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.k.From, b.k.From), cmp.Compare(a.k.To, b.k.To))
	})
	a := &st.Accepted
	a.From, a.To, a.Slot = make([]int, len(rows)), make([]int, len(rows)), make([]int64, len(rows))
	for i, r := range rows {
		a.From[i], a.To[i], a.Slot[i] = r.k.From, r.k.To, int64(r.s)
	}
	return st
}

// Restore rebuilds the queue's dynamic state from a snapshot, replacing
// whatever it held. The plan and stream binding are construction-time and
// must match the snapshot's run configuration (the engine validates that
// separately via the config digest).
func (q *Queue) Restore(st *State) {
	q.inflight = q.inflight[:0]
	q.seq = 0
	q.ctr = Counters{}
	if q.last != nil {
		q.last = make(map[linkKey]units.Slot)
	}
	if st == nil {
		return
	}
	q.seq = st.Seq
	q.ctr = st.Counters
	for _, f := range st.InFlight {
		if len(q.inflight) == 0 || units.Slot(f.At) < q.minAt {
			q.minAt = units.Slot(f.At)
		}
		q.inflight = append(q.inflight, entry{
			At:  units.Slot(f.At),
			Seq: f.Seq,
			Del: rach.Delivery{To: f.To, Msg: rach.Message{
				From:    f.From,
				Codec:   rach.Codec(f.Code),
				Kind:    rach.Kind(f.Kind),
				Service: f.Svc,
				Slot:    units.Slot(f.Slot),
				RSSI:    units.DBm(f.RSSI),
			}},
		})
	}
	a := st.Accepted
	if q.last != nil || len(a.From) > 0 || len(st.InFlight) > 0 {
		q.last = make(map[linkKey]units.Slot, len(a.From))
	}
	for i, from := range a.From {
		q.last[linkKey{From: from, To: a.To[i]}] = units.Slot(a.Slot[i])
	}
}
