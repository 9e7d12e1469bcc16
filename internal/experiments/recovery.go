package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// Recovery sweep: how fast does each protocol's self-healing layer bring
// the network back to synchrony after a crash wave? Every (size, seed,
// protocol) point runs twice: a fault-free reference run finds the
// convergence slot, then a derived fault plan crashes the top 20% of
// device ids two periods after it and the faulted run measures the
// fault-to-re-synchrony time (Result.RecoverySlots) and the repair rounds
// it took. Plans are derived deterministically from the reference run, so
// the sweep is reproducible like every other driver in this package.

// recoveryKillFraction is the share of devices the derived plan crashes.
const recoveryKillFraction = 5 // kill n/5 = 20%

// recoveryPrefixRing bounds the rolling in-memory checkpoint ring a
// reference run keeps for shared-prefix reuse (Options.PrefixSlots): deep
// state copies are not free, and only the newest checkpoint at or before the
// convergence slot is ever resumed from.
const recoveryPrefixRing = 8

// RecoveryRow is one recovery-sweep point: per-protocol summaries across
// seeds.
type RecoveryRow struct {
	N int
	// RecTimeFST and RecTimeST summarize cumulative recovery slots
	// (fault to re-convergence) over the healed runs.
	RecTimeFST metrics.Summary
	RecTimeST  metrics.Summary
	// RepairsFST and RepairsST summarize completed self-healing rounds.
	RepairsFST metrics.Summary
	RepairsST  metrics.Summary
	// HealedFST and HealedST count runs whose survivors re-converged,
	// out of AttemptedFST/AttemptedST (reference runs that converged and
	// could be faulted).
	HealedFST, HealedST       int
	AttemptedFST, AttemptedST int
}

// recoveryPlan derives the crash plan for a converged reference run:
// the top n/recoveryKillFraction device ids crash together two periods
// after the observed convergence slot.
func recoveryPlan(cfg core.Config, convergedAt units.Slot) *faults.Plan {
	crashAt := int64(convergedAt) + 2*int64(cfg.PeriodSlots)
	if crashAt >= int64(cfg.MaxSlots) {
		return nil // no slot budget left to observe a recovery
	}
	p := &faults.Plan{Version: faults.PlanSchema}
	for d := cfg.N - cfg.N/recoveryKillFraction; d < cfg.N; d++ {
		p.Actions = append(p.Actions, faults.Action{Kind: faults.KindCrash, At: crashAt, Device: d})
	}
	return p
}

// healing folds the derived crash-wave runs of one protocol at one sweep
// point (recovery and delay drivers). A nil run is a job whose reference
// run left nothing to fault.
type healing struct {
	attempted, healed int
	rec, repairs      []float64
}

func (h *healing) add(res *core.Result) {
	if res == nil {
		return
	}
	h.attempted++
	if res.Recoveries > 0 {
		h.healed++
		h.rec = append(h.rec, float64(res.RecoverySlots))
		h.repairs = append(h.repairs, float64(res.Repairs))
	}
}

// RunRecoverySweep executes the recovery sweep and returns one row per
// size, ordered by N.
func RunRecoverySweep(opts Options) ([]RecoveryRow, error) {
	// A job is the reference run plus its derived faulted run; its outcome
	// is the faulted run's result, nil when there was none.
	jobs, out, err := runSweep(opts, "recovery", fstST, plain, func(r *sweepRun) (*core.Result, error) {
		// Shared-prefix reuse (Options.PrefixSlots), the simulator's one
		// prefix reuse: the reference run keeps a rolling ring of in-memory
		// checkpoints. The derived plan's crash wave lands two periods after
		// the observed convergence slot, so any checkpoint at or before that
		// slot leaves the margin a fault run resuming a fault-free snapshot
		// needs (first action >= resume slot + 2 periods: every survivor
		// re-registers with the watchdog first), and the faulted run resumes
		// from it instead of replaying the whole pre-fault trajectory.
		// RecoveryRow carries no ActiveSlots, so the checkpoint-boundary
		// stepping the reference run adds (and the resumed run's inherited
		// accounting) shifts nothing a row reports —
		// TestRunRecoverySweepPrefixIdentical pins every run's Result.
		refCfg := r.config()
		var ring []*snapshot.State
		if opts.PrefixSlots != 0 {
			cadence := opts.PrefixSlots
			if cadence < 0 { // auto: five firing periods
				cadence = 5 * units.Slot(refCfg.PeriodSlots)
			}
			refCfg.CheckpointEvery = cadence
			refCfg.OnCheckpoint = func(st *snapshot.State) {
				if len(ring) >= recoveryPrefixRing {
					copy(ring, ring[1:])
					ring[len(ring)-1] = st
					return
				}
				ring = append(ring, st)
			}
		}
		ref, _, err := r.run(refCfg)
		if err != nil || !ref.Converged {
			return nil, err
		}
		cfg := r.config()
		if cfg.Faults = recoveryPlan(cfg, ref.ConvergenceSlots); cfg.Faults == nil {
			return nil, nil
		}
		for i := len(ring) - 1; i >= 0; i-- {
			if units.Slot(ring[i].Slot) <= ref.ConvergenceSlots {
				cfg.Resume = ring[i]
				r.resumed = true
				break
			}
		}
		res, _, err := r.run(cfg)
		return &res, err
	})
	if err != nil {
		return nil, err
	}

	byN := make(map[int]*[2]healing)
	for i, j := range jobs {
		h := byN[j.n]
		if h == nil {
			h = &[2]healing{}
			byN[j.n] = h
		}
		h[j.p].add(out[i])
	}

	rows := make([]RecoveryRow, 0, len(byN))
	for n, h := range byN {
		rows = append(rows, RecoveryRow{
			N:            n,
			RecTimeFST:   metrics.Summarize(h[iFST].rec),
			RecTimeST:    metrics.Summarize(h[iST].rec),
			RepairsFST:   metrics.Summarize(h[iFST].repairs),
			RepairsST:    metrics.Summarize(h[iST].repairs),
			HealedFST:    h[iFST].healed,
			HealedST:     h[iST].healed,
			AttemptedFST: h[iFST].attempted,
			AttemptedST:  h[iST].attempted,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].N < rows[j].N })
	return rows, nil
}

// RecoveryTable renders the recovery sweep: slots from the crash wave to
// re-detected synchrony over the survivors, and the self-healing rounds
// spent, per protocol and scale.
func RecoveryTable(rows []RecoveryRow) *metrics.Table {
	t := metrics.NewTable(
		"Recovery after a 20% crash wave (slots from fault to re-synchrony; mean ± 95% CI)",
		"nodes", "FST rec", "FST ±CI", "ST rec", "ST ±CI", "FST repairs", "ST repairs", "healed FST", "healed ST",
	)
	for _, r := range rows {
		t.AddRow(r.N,
			r.RecTimeFST.Mean, r.RecTimeFST.CI95(),
			r.RecTimeST.Mean, r.RecTimeST.CI95(),
			r.RepairsFST.Mean, r.RepairsST.Mean,
			fmt.Sprintf("%d/%d", r.HealedFST, r.AttemptedFST),
			fmt.Sprintf("%d/%d", r.HealedST, r.AttemptedST))
	}
	return t
}
