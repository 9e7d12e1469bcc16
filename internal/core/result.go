package core

import (
	"fmt"

	"repro/internal/asyncnet"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rach"
	"repro/internal/units"
)

// Result is the outcome of one protocol run — everything Figs. 3 and 4 and
// the ablations report.
type Result struct {
	// Protocol names the protocol that produced the result.
	Protocol string
	// N is the device count.
	N int
	// Converged reports whether network-wide synchrony was reached before
	// MaxSlots.
	Converged bool
	// ConvergenceSlots is the slot at which synchrony was detected
	// (Fig. 3's "convergence time"; 1 slot = 1 ms), or MaxSlots when the
	// run did not converge.
	ConvergenceSlots units.Slot
	// Counters are the control-message tallies (Fig. 4's "average number
	// [of] exchange[d]" messages is Counters.TotalTx()).
	Counters rach.Counters
	// Ops counts brightness-ranking operations — the O(n²) vs O(n log n)
	// work the paper's complexity analysis concerns.
	Ops uint64

	// TreeEdges is the spanning forest ST built (nil for FST).
	TreeEdges []graph.Edge
	// TreePhases is the number of fragment merge phases ST ran.
	TreePhases int
	// TreeWeight is the total weight of TreeEdges.
	TreeWeight float64

	// Energy itemizes the run's battery cost under the LTE UE model of
	// internal/energy (transmit + decode + idle listening).
	Energy energy.Breakdown
	// DiscoveredLinks counts directed neighbour-table entries accumulated
	// during the run (physical-level discovery coverage).
	DiscoveredLinks int
	// ActiveSlots counts the slots the run engine actually stepped, out of
	// the TotalSlots span the run covered: only slots where a fire, a
	// protocol timer or a trace, fault, delivery or checkpoint boundary
	// lands. The ratio is the measured sparsity next-event stepping
	// exploits. It is the same for every worker count, but it is
	// observability, not a model output — the reference stepper in the
	// tests steps every slot, so differential fingerprints do not compare
	// it.
	ActiveSlots uint64
	// TotalSlots is the slot span the run covered (see ActiveSlots).
	TotalSlots uint64
	// ServiceDiscovery is the fraction of reachable same-service pairs
	// that found each other (application-level discovery).
	ServiceDiscovery float64

	// Repairs counts completed self-healing rounds: orphaned subtrees
	// re-attached (and recovered devices re-joined) after fault-plan
	// membership changes. Zero without a fault plan.
	Repairs int
	// Recoveries counts re-convergence episodes: each time the live set
	// re-reached synchrony after fault activity disturbed it.
	Recoveries int
	// RecoverySlots is the cumulative recovery time — slots from each
	// disturbance (the episode's first fault event) to the re-convergence
	// closing it, summed over Recoveries episodes.
	RecoverySlots units.Slot

	// Net carries the message runtime's adversary counters (delayed,
	// duplicated, lost, rejected, peak in-flight). Nil without an active
	// asynchrony plan.
	Net *asyncnet.Counters
}

// String implements fmt.Stringer with the headline numbers.
func (r Result) String() string {
	conv := "no"
	if r.Converged {
		conv = fmt.Sprintf("%d slots", r.ConvergenceSlots)
	}
	return fmt.Sprintf("%s n=%d: converged=%s, messages=%d (RACH1=%d, RACH2=%d), ops=%d",
		r.Protocol, r.N, conv, r.Counters.TotalTx(), r.Counters.Tx[rach.RACH1], r.Counters.Tx[rach.RACH2], r.Ops)
}

// Protocol is a runnable proximity/synchronization protocol.
type Protocol interface {
	// Name identifies the protocol in result tables ("FST", "ST").
	Name() string
	// Run executes the protocol on a fresh environment to convergence or
	// the slot cap, returning the measured result.
	Run(env *Env) Result
}
