// Shared checkpoint-prefix fan-out. Branching studies — "run this world to
// slot P, then try k what-if continuations" — waste most of their compute
// re-simulating the shared prefix once per branch. The planner here runs the
// prefix exactly once per group of branches that provably share it, captures
// the full simulation state in memory at the divergence boundary
// (Config.PrefixSlot + OnPrefix), and launches every branch from a cheap
// deep copy (snapshot.State.Clone) via Config.Resume. Results are
// bit-identical to running each branch from slot 1: resume is the
// byte-exact machinery the checkpoint suite pins, and the shareability
// rules below refuse any branch whose trajectory could differ inside the
// prefix.
//
// Shareability. A branch may resume from the base run's prefix capture only
// when its from-scratch trajectory is provably identical to the base run's
// through the capture slot:
//
//   - Fault-plan branches: the fault layer's only pre-action effects are
//     watchdog evaluations (armed lazily at the first applied action — see
//     internal/core) and per-message loss draws. A plan is shareable iff it
//     has no loss rate, no join actions (a joining device is absent from
//     slot 0, so the trajectories differ immediately), and its earliest
//     action or outage lands at least two periods after the prefix slot —
//     the margin that lets the resumed run repopulate the watchdog's
//     lastFired table before any verdict can depend on it.
//   - Configure branches: arbitrary config edits are opaque, so the caller
//     must declare DivergeAt, the first slot at which the edited config can
//     change behaviour; the branch shares the prefix iff DivergeAt lies
//     strictly after it. An undeclared (zero) DivergeAt never shares.
//   - ForkStreams branches: the fork reroots every random stream at the
//     resume boundary itself, so they always share the prefix — that is the
//     point. Forked branches explore alternative futures of one prefix; by
//     construction they have no from-scratch equivalent, so no byte-identity
//     claim attaches to them.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// Branch is one continuation of a shared base run. Exactly the zero fields
// reproduce the base run itself. The three divergence mechanisms compose:
// a branch may attach a fault plan AND edit the config AND fork streams;
// it shares the prefix only if every mechanism it uses is shareable.
type Branch struct {
	// Name labels the branch in results.
	Name string
	// Faults attaches a fault schedule to the branch run.
	Faults *faults.Plan
	// Configure edits the branch's config (applied after the base fields
	// are copied). It must not touch Resume, PrefixSlot, OnPrefix or
	// ForkStreams — the planner owns those.
	Configure func(*core.Config)
	// DivergeAt declares the first slot at which Configure's edits can
	// change the run's behaviour. Required (non-zero) for a Configure
	// branch to share the prefix; ignored when Configure is nil.
	DivergeAt units.Slot
	// ForkStreams, when non-empty, reroots the branch's random streams at
	// the resume boundary (see core.Config.ForkStreams).
	ForkStreams string
}

// BranchResult is one branch's outcome.
type BranchResult struct {
	// Name echoes the branch label.
	Name string
	// SharedPrefix reports whether the run resumed from the base prefix
	// capture (false: it ran from slot 1).
	SharedPrefix bool
	// Res is the branch run's result.
	Res core.Result
}

// planDivergence returns the earliest slot at which a fault plan acts, and
// whether the plan is prefix-shareable at all (no loss rate, no joins — see
// the package comment). A nil or empty plan is shareable and never acts.
func planDivergence(p *faults.Plan) (first units.Slot, shareable bool) {
	if p == nil || p.Empty() {
		return units.Slot(1<<62 - 1), true
	}
	if p.LossRate != 0 {
		return 0, false // loss draws start at slot 1
	}
	first = units.Slot(1<<62 - 1)
	for _, a := range p.Actions {
		if a.Kind == faults.KindJoin {
			return 0, false // joining devices are absent from slot 0
		}
		if units.Slot(a.At) < first {
			first = units.Slot(a.At)
		}
	}
	for _, o := range p.Outages {
		if units.Slot(o.At) < first {
			first = units.Slot(o.At)
		}
	}
	return first, true
}

// branchShareable decides whether branch b may resume from a prefix capture
// taken at prefix slots into the base run of cfg.
func branchShareable(cfg core.Config, b Branch, prefix units.Slot) bool {
	if b.Configure != nil && (b.DivergeAt <= prefix) {
		return false
	}
	if b.Faults != nil {
		first, ok := planDivergence(b.Faults)
		if !ok || first < prefix+2*units.Slot(cfg.PeriodSlots) {
			return false
		}
	}
	return true
}

// RunBranches runs the base configuration to completion, capturing its state
// at the last slot stepped at or before prefixSlot, then runs every branch —
// from the capture when shareable, from slot 1 otherwise — and returns the
// base result plus one BranchResult per branch, in input order. workers
// bounds branch-level parallelism (<=0: one per CPU). Environment geometry
// is memoized across the base and all branches sharing a deployment.
//
// The base config must be a plain from-scratch run: no Resume, no Faults, no
// prefix or checkpoint hooks of its own. A base run that converges before
// stepping past prefixSlot yields no capture; every branch then transparently
// falls back to a from-scratch run (SharedPrefix=false), except ForkStreams
// branches, which have no from-scratch meaning and fail the sweep.
func RunBranches(cfg core.Config, proto core.Protocol, prefixSlot units.Slot, branches []Branch, workers int) (core.Result, []BranchResult, error) {
	switch {
	case cfg.Resume != nil:
		return core.Result{}, nil, fmt.Errorf("experiments: base config carries a Resume state")
	case cfg.Faults != nil:
		return core.Result{}, nil, fmt.Errorf("experiments: base config carries a fault plan (attach plans to branches)")
	case cfg.OnPrefix != nil || cfg.OnCheckpoint != nil:
		return core.Result{}, nil, fmt.Errorf("experiments: base config carries checkpoint hooks (the planner owns them)")
	case prefixSlot < 0:
		return core.Result{}, nil, fmt.Errorf("experiments: negative prefix slot %d", prefixSlot)
	}
	if cfg.Geometry == nil {
		cfg.Geometry = core.NewGeometryCache()
	}

	anyShared := false
	for _, b := range branches {
		if branchShareable(cfg, b, prefixSlot) {
			anyShared = true
			break
		}
	}

	// Base run, capturing the shared prefix when any branch wants it.
	var capture *snapshot.State
	baseCfg := cfg
	if prefixSlot > 0 && anyShared {
		baseCfg.PrefixSlot = prefixSlot
		baseCfg.OnPrefix = func(st *snapshot.State) { capture = st }
	}
	env, err := core.NewEnv(baseCfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	base := proto.Run(env)

	results := make([]BranchResult, len(branches))
	err = forEach(workers, len(branches), func(i int) error {
		b := branches[i]
		bcfg := cfg
		if b.Configure != nil {
			b.Configure(&bcfg)
		}
		bcfg.Faults = b.Faults
		shared := capture != nil && branchShareable(cfg, b, units.Slot(capture.Slot))
		if shared {
			// Every branch resumes from its own deep copy: restore overlays
			// state by reference in places, and branches run concurrently.
			bcfg.Resume = capture.Clone()
			bcfg.ForkStreams = b.ForkStreams
		} else if b.ForkStreams != "" {
			return fmt.Errorf("experiments: branch %q forks streams but no prefix capture is available", b.Name)
		}
		benv, err := core.NewEnv(bcfg)
		if err != nil {
			return err
		}
		results[i] = BranchResult{Name: b.Name, SharedPrefix: shared, Res: proto.Run(benv)}
		return nil
	})
	if err != nil {
		return core.Result{}, nil, err
	}
	return base, results, nil
}
