package experiments

import (
	"fmt"
	"sort"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Delay sweep: how does bounded message asynchrony degrade convergence and
// self-healing? Each point attaches the asyncnet adversary with a maximum
// delay of 0 (lockstep baseline), T/8, T/4 and T/2 of the firing period,
// reordering enabled and 1% duplication, and measures per protocol:
//
//   - convergence time of a fault-free run under the adversary, and
//   - recovery time after the same derived 20% crash wave the recovery
//     sweep uses, with the adversary still active.
//
// The zero-delay point runs without a plan at all — a degenerate plan is
// defined to be bit-identical to no plan, so the baseline row doubles as a
// live cross-check of the lockstep-equivalence guarantee (DESIGN.md §14).

// delayDupRate is the duplication probability every adversarial point uses.
const delayDupRate = 0.01

// delayFractions are the max-delay points as divisors of the firing period
// (0 stands for the lockstep baseline).
var delayFractions = []int{0, 8, 4, 2}

// delayVariants are the delay sweep's variant axis, labelled by max delay in
// slots. The sweep does not vary the model period, so the points are
// fractions of the paper's.
func delayVariants() []variant {
	period := core.PaperConfig(1, 1).PeriodSlots
	vs := make([]variant, len(delayFractions))
	for i, frac := range delayFractions {
		d := 0
		if frac > 0 {
			d = period / frac
		}
		vs[i] = variant{label: d, configure: func(cfg *core.Config) {
			if cfg.Net = delayPlan(d); cfg.Net != nil {
				// Hardened-protocol discipline under asynchrony: bound the
				// jump budget (see Config.Net). The lockstep baseline keeps
				// the paper's unlimited budget so its row matches the other
				// sweeps.
				cfg.JumpsPerCycle = 1
			}
		}}
	}
	return vs
}

// DelayRow is one delay-sweep point: per-protocol summaries across seeds at
// one maximum message delay.
type DelayRow struct {
	N int
	// DelaySlots is the adversary's maximum delivery delay (0 = lockstep
	// baseline, no adversary attached).
	DelaySlots int
	// ConvFST and ConvST summarize convergence slots over the converged
	// fault-free runs.
	ConvFST metrics.Summary
	ConvST  metrics.Summary
	// RecFST and RecST summarize cumulative recovery slots over the healed
	// faulted runs.
	RecFST metrics.Summary
	RecST  metrics.Summary
	// ConvergedFST and ConvergedST count fault-free runs that reached
	// synchrony, out of Seeds each.
	ConvergedFST, ConvergedST int
	// HealedFST and HealedST count faulted runs whose survivors
	// re-converged, out of AttemptedFST/AttemptedST.
	HealedFST, HealedST       int
	AttemptedFST, AttemptedST int
}

// delayPlan builds the adversary for one sweep point: max delay d slots,
// reordering on, 1% duplication. d == 0 returns nil — the lockstep baseline
// runs without the message runtime (bit-identical to a degenerate plan).
func delayPlan(d int) *asyncnet.Plan {
	if d == 0 {
		return nil
	}
	return &asyncnet.Plan{
		Version:       asyncnet.PlanSchema,
		MaxDelaySlots: d,
		Reorder:       true,
		DupRate:       delayDupRate,
	}
}

// RunDelaySweep executes the delay sweep and returns one row per
// (size, delay), ordered by N then delay.
func RunDelaySweep(opts Options) ([]DelayRow, error) {
	// A job is the fault-free reference run under the adversary plus, when
	// it converged, the same derived crash wave as the recovery sweep,
	// healed under the adversary (faulted is nil when there was none).
	type outcome struct {
		ref     core.Result
		faulted *core.Result
	}
	variants := delayVariants()
	jobs, out, err := runSweep(opts, "delay", fstST, variants, func(r *sweepRun) (outcome, error) {
		ref, _, err := r.run(r.config())
		if err != nil || !ref.Converged {
			return outcome{ref: ref}, err
		}
		cfg := r.config()
		if cfg.Faults = recoveryPlan(cfg, ref.ConvergenceSlots); cfg.Faults == nil {
			return outcome{ref: ref}, nil
		}
		res, _, err := r.run(cfg)
		return outcome{ref: ref, faulted: &res}, err
	})
	if err != nil {
		return nil, err
	}

	type point struct{ n, delay int }
	type acc struct {
		conv      [2][]float64
		converged [2]int
		heal      [2]healing
	}
	byPoint := make(map[point]*acc)
	for i, j := range jobs {
		p := point{j.n, variants[j.v].label.(int)}
		a := byPoint[p]
		if a == nil {
			a = &acc{}
			byPoint[p] = a
		}
		o := out[i]
		if o.ref.Converged {
			a.converged[j.p]++
			a.conv[j.p] = append(a.conv[j.p], float64(o.ref.ConvergenceSlots))
		}
		a.heal[j.p].add(o.faulted)
	}

	rows := make([]DelayRow, 0, len(byPoint))
	for p, a := range byPoint {
		rows = append(rows, DelayRow{
			N:            p.n,
			DelaySlots:   p.delay,
			ConvFST:      metrics.Summarize(a.conv[iFST]),
			ConvST:       metrics.Summarize(a.conv[iST]),
			RecFST:       metrics.Summarize(a.heal[iFST].rec),
			RecST:        metrics.Summarize(a.heal[iST].rec),
			ConvergedFST: a.converged[iFST],
			ConvergedST:  a.converged[iST],
			HealedFST:    a.heal[iFST].healed,
			HealedST:     a.heal[iST].healed,
			AttemptedFST: a.heal[iFST].attempted,
			AttemptedST:  a.heal[iST].attempted,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].N != rows[j].N {
			return rows[i].N < rows[j].N
		}
		return rows[i].DelaySlots < rows[j].DelaySlots
	})
	return rows, nil
}

// DelayTable renders the delay sweep: convergence and crash-recovery time
// per protocol as the adversary's maximum message delay grows.
func DelayTable(rows []DelayRow) *metrics.Table {
	t := metrics.NewTable(
		"Convergence and recovery under bounded message asynchrony (reorder on, 1% duplication; mean ± 95% CI)",
		"nodes", "max delay", "FST conv", "FST ±CI", "ST conv", "ST ±CI", "FST rec", "ST rec", "healed FST", "healed ST",
	)
	for _, r := range rows {
		t.AddRow(r.N, r.DelaySlots,
			r.ConvFST.Mean, r.ConvFST.CI95(),
			r.ConvST.Mean, r.ConvST.CI95(),
			r.RecFST.Mean, r.RecST.Mean,
			fmt.Sprintf("%d/%d", r.HealedFST, r.AttemptedFST),
			fmt.Sprintf("%d/%d", r.HealedST, r.AttemptedST))
	}
	return t
}
