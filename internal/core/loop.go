package core

import "repro/internal/trace"

// emit forwards one structured protocol event to the EventTrace hook when
// configured. Events fire only at slots the run stepped anyway, so the hook
// is RNG-neutral by construction.
func (c *Config) emit(ev trace.Event) {
	if c.EventTrace != nil {
		c.EventTrace(ev)
	}
}

// couplingRule decides whether a receiver's oscillator takes a pulse from a
// sender. FST couples on everything heard; ST couples along tree edges.
type couplingRule func(sender, receiver int) bool

// log2ceil returns ceil(log2(n)), minimum 1 — the per-pulse ranking cost in
// the ordered-tree structure.
func log2ceil(n int) uint64 {
	var b uint64 = 1
	for v := 2; v < n; v *= 2 {
		b++
	}
	return b
}
