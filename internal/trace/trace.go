// Package trace provides lightweight structured event recording for
// simulation runs — a bounded ring buffer of typed events plus renderers,
// including the firing raster that visualizes synchrony emerging (devices
// on the y-axis, time on the x-axis, a mark per PS fire; synchronization
// appears as the scattered marks collapsing into vertical stripes).
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/units"
)

// Kind is the event type.
type Kind int

const (
	// KindFire is a device firing (broadcasting a PS).
	KindFire Kind = iota
	// KindMerge is a fragment merge.
	KindMerge
	// KindJoin is an FST tree join.
	KindJoin
	// KindConverge marks detected synchrony.
	KindConverge
	// KindChurn is a device powering off (a fault-plan crash).
	KindChurn
	// KindRecover is a device powering (back) on: a fault-plan recover or
	// mid-run join.
	KindRecover
	// KindRepair is a completed self-healing round: orphaned subtrees
	// re-attached and the tree spanning the live set again.
	KindRepair
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFire:
		return "fire"
	case KindMerge:
		return "merge"
	case KindJoin:
		return "join"
	case KindConverge:
		return "converge"
	case KindChurn:
		return "churn"
	case KindRecover:
		return "recover"
	case KindRepair:
		return "repair"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence. A and B identify devices (B = -1 when
// not applicable).
type Event struct {
	Slot units.Slot
	Kind Kind
	A, B int
}

// Recorder is a bounded ring buffer of events. The zero value is unusable;
// call NewRecorder. Recording past capacity overwrites the oldest events.
type Recorder struct {
	buf     []Event
	next    int
	count   int
	dropped int
}

// NewRecorder returns a recorder holding up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Add records one event, overwriting the oldest when the ring is full (the
// overwrite is counted — see Dropped).
func (r *Recorder) Add(e Event) {
	if r.count == len(r.buf) {
		r.dropped++
	} else {
		r.count++
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.count }

// Dropped returns how many events the ring overwrote: the recording's
// first Dropped events are lost and Events() is the tail. Renderers use it
// to say "first K events lost" instead of silently truncating the raster.
func (r *Recorder) Dropped() int { return r.dropped }

// Events returns the retained events in recording order (oldest first).
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// WriteTo dumps the retained events as one line each.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range r.Events() {
		var n int
		var err error
		if e.B >= 0 {
			n, err = fmt.Fprintf(w, "%8d %-8s dev=%d peer=%d\n", e.Slot, e.Kind, e.A, e.B)
		} else {
			n, err = fmt.Fprintf(w, "%8d %-8s dev=%d\n", e.Slot, e.Kind, e.A)
		}
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Raster renders the fire events of n devices over [fromSlot, toSlot) as an
// ASCII raster: one row per device, one column per bucket of bucketSlots
// slots, '|' where the device fired in that bucket. Vertical alignment of
// marks across rows is synchrony made visible.
func Raster(events []Event, n int, fromSlot, toSlot units.Slot, bucketSlots int) string {
	if bucketSlots < 1 {
		bucketSlots = 1
	}
	if toSlot <= fromSlot || n < 1 {
		return ""
	}
	cols := int(toSlot-fromSlot) / bucketSlots
	if cols < 1 {
		cols = 1
	}
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	for _, e := range events {
		if e.Kind != KindFire || e.A < 0 || e.A >= n {
			continue
		}
		if e.Slot < fromSlot || e.Slot >= toSlot {
			continue
		}
		c := int(e.Slot-fromSlot) / bucketSlots
		if c >= cols {
			c = cols - 1
		}
		rows[e.A][c] = '|'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fires, slots %d..%d (one column = %d slots)\n", fromSlot, toSlot, bucketSlots)
	for i, row := range rows {
		fmt.Fprintf(&b, "UE%-3d %s\n", i, string(row))
	}
	return b.String()
}
