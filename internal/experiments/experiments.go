// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (Section V), plus the ablations listed in
// DESIGN.md. Each driver returns a metrics.Table whose rows are the series
// the paper plots, so `d2dsim` can print them or dump CSV for plotting.
//
// Every driver that loops over seeds and protocols — Figs. 3/4 (RunSweep),
// the recovery and delay sweeps, ablations A/B/D–H, Services,
// ConvergenceDistribution, TreeQuality and ThreeWay — runs on one sweep
// runner (sweep.go). Its jobs fan out over one worker pool (one goroutine
// per CPU by default); every (size, variant, seed, protocol) job builds its
// own Env from a derived seed, and rows fold the job outcomes in job order,
// so results are bit-identical regardless of scheduling and worker count.
// Timeline and Mobility run their protocol directly (a live trace hook; an
// epoch chain), and TableI, Fig2Tree, Underlay, DiscoverySchedules and
// AblationSearch make no protocol run.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/asciichart"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/units"
)

// Options configures a sweep.
type Options struct {
	// Sizes are the device counts to sweep (Fig. 3/4 x-axis). The
	// fixed-size drivers (the ablations, Services, ConvergenceDistribution,
	// TreeQuality) take exactly one.
	Sizes []int
	// Seeds is the number of repetitions per size.
	Seeds int
	// BaseSeed offsets the derived per-run seeds.
	BaseSeed int64
	// MaxSlots overrides the per-run slot cap (0 keeps the default) of
	// every sweep driver's runs; AblationDrift keeps its fixed cap.
	MaxSlots units.Slot
	// Workers bounds the run-level worker pool (0 = NumCPU). Rows are
	// bit-identical for every setting.
	Workers int
	// SlotWorkers sets each run's intra-slot engine parallelism
	// (core.Config.Workers): 0 or 1 single-threaded, >1 that many
	// workers, <0 one per CPU. Slot-level and run-level parallelism compose —
	// slot-level pays off for few large runs, run-level for many small
	// ones. Results are bit-identical for every setting.
	SlotWorkers int
	// OnResult, when non-nil, observes every finished run (live telemetry:
	// `d2dsim -telemetry-addr` feeds its metric registry from here). Called
	// concurrently from the sweep workers — implementations must be
	// goroutine-safe and must not mutate the Result. It fires exactly once
	// per run a sweep makes — the reference runs of the recovery and delay
	// drivers included — whether the Result was simulated or served from
	// Cache: a cached hit is still one logical run of the sweep.
	OnResult func(n int, protocol string, res core.Result)
	// PrefixSlots, when non-zero, arms shared checkpoint-prefix reuse in
	// the drivers that derive branch runs from a reference trajectory
	// (RunRecoverySweep): the reference run checkpoints in memory at this
	// slot cadence (negative: an automatic cadence of five firing
	// periods), and each derived faulted run resumes from the latest
	// usable checkpoint instead of re-simulating the shared prefix from
	// slot 1. Row results are bit-identical with or without it (the only
	// run observable it can shift is the engine-dependent
	// ActiveSlots/TotalSlots pair, which recovery rows do not carry).
	// Every other driver ignores it: their jobs share no trajectory, only
	// geometry, and RunDelaySweep derives its faulted runs without prefix
	// reuse.
	PrefixSlots units.Slot
	// Cache, when non-nil, short-circuits runs whose content-addressed key
	// (CacheKey) already holds a Result — in memory, or in the cache's
	// directory tier from an earlier process. Runs whose configuration the
	// key cannot represent (live hooks, resumed states) are simulated
	// unconditionally and never stored.
	Cache *ResultCache
	// Progress, when non-nil, receives one JSONL ProgressEvent per
	// completed job (done/total, cache reuse, prefix resumption, elapsed
	// wall time) — the live sweep observability `d2dsim -progress` streams
	// to stderr. Lines are whole-line atomic across the concurrent workers;
	// the writer itself need not be goroutine-safe. Write errors are
	// swallowed: progress never fails a sweep.
	Progress io.Writer
	// Geometry, when non-nil, is the link-geometry memoization the sweep
	// shares across its runs instead of the internal per-sweep cache —
	// callers pass one to read its hit/miss counters afterwards (the
	// `d2dsim -exp recovery`/`delay`/`activity` summaries).
	Geometry *core.GeometryCache
}

// Row is one sweep point: per-protocol summaries across seeds.
type Row struct {
	N          int
	TimeFST    metrics.Summary // convergence slots
	TimeST     metrics.Summary
	MsgFST     metrics.Summary // total control messages
	MsgST      metrics.Summary
	OpsFST     metrics.Summary // ranking operations
	OpsST      metrics.Summary
	EnergyFST  metrics.Summary // total battery cost, mJ
	EnergyST   metrics.Summary
	ActiveFST  metrics.Summary // stepped/covered slot ratio
	ActiveST   metrics.Summary
	ConvFST    int // converged runs out of Seeds
	ConvST     int
	TreePhases metrics.Summary // ST merge phases
	// PTime, PMsg are two-sided Mann–Whitney p-values for the FST-vs-ST
	// convergence-time and message-count comparisons at this size.
	PTime, PMsg float64
}

// RunSweep executes the sweep and returns one row per size, ordered by N.
func RunSweep(opts Options) ([]Row, error) {
	jobs, out, err := runSweep(opts, "sweep", fstST, plain, func(r *sweepRun) (core.Result, error) {
		res, _, err := r.run(r.config())
		return res, err
	})
	if err != nil {
		return nil, err
	}

	type acc struct {
		time, msg, ops, energy, active [2][]float64
		conv                           [2]int
		phases                         []float64
	}
	byN := make(map[int]*acc)
	for i, j := range jobs {
		a := byN[j.n]
		if a == nil {
			a = &acc{}
			byN[j.n] = a
		}
		res, p := out[i], j.p
		active := 1.0
		if res.TotalSlots > 0 {
			active = float64(res.ActiveSlots) / float64(res.TotalSlots)
		}
		a.time[p] = append(a.time[p], float64(res.ConvergenceSlots))
		a.msg[p] = append(a.msg[p], float64(res.Counters.TotalTx()))
		a.ops[p] = append(a.ops[p], float64(res.Ops))
		a.energy[p] = append(a.energy[p], res.Energy.TotalMJ)
		a.active[p] = append(a.active[p], active)
		if res.Converged {
			a.conv[p]++
		}
		if p == iST {
			a.phases = append(a.phases, float64(res.TreePhases))
		}
	}

	rows := make([]Row, 0, len(byN))
	for n, a := range byN {
		_, pTime := metrics.MannWhitneyU(a.time[iFST], a.time[iST])
		_, pMsg := metrics.MannWhitneyU(a.msg[iFST], a.msg[iST])
		rows = append(rows, Row{
			PTime:      pTime,
			PMsg:       pMsg,
			N:          n,
			TimeFST:    metrics.Summarize(a.time[iFST]),
			TimeST:     metrics.Summarize(a.time[iST]),
			MsgFST:     metrics.Summarize(a.msg[iFST]),
			MsgST:      metrics.Summarize(a.msg[iST]),
			OpsFST:     metrics.Summarize(a.ops[iFST]),
			OpsST:      metrics.Summarize(a.ops[iST]),
			EnergyFST:  metrics.Summarize(a.energy[iFST]),
			EnergyST:   metrics.Summarize(a.energy[iST]),
			ActiveFST:  metrics.Summarize(a.active[iFST]),
			ActiveST:   metrics.Summarize(a.active[iST]),
			ConvFST:    a.conv[iFST],
			ConvST:     a.conv[iST],
			TreePhases: metrics.Summarize(a.phases),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].N < rows[j].N })
	return rows, nil
}

// Fig3Table renders the convergence-time comparison (Fig. 3): slots (= ms)
// to network-wide synchrony per method and scale.
func Fig3Table(rows []Row) *metrics.Table {
	t := metrics.NewTable(
		"Fig. 3 — Convergence time vs. scale (slots = ms; mean ± 95% CI)",
		"nodes", "FST mean", "FST ±CI", "ST mean", "ST ±CI", "ST/FST", "p(MW)", "conv FST", "conv ST",
	)
	for _, r := range rows {
		ratio := 0.0
		if r.TimeFST.Mean > 0 {
			ratio = r.TimeST.Mean / r.TimeFST.Mean
		}
		t.AddRow(r.N, r.TimeFST.Mean, r.TimeFST.CI95(), r.TimeST.Mean, r.TimeST.CI95(),
			ratio, r.PTime,
			fmt.Sprintf("%d/%d", r.ConvFST, r.TimeFST.N), fmt.Sprintf("%d/%d", r.ConvST, r.TimeST.N))
	}
	return t
}

// Fig4Table renders the message-overhead comparison (Fig. 4): total control
// messages (RACH1 + RACH2 transmissions) until convergence.
func Fig4Table(rows []Row) *metrics.Table {
	t := metrics.NewTable(
		"Fig. 4 — Control messages until convergence (mean ± 95% CI)",
		"nodes", "FST mean", "FST ±CI", "ST mean", "ST ±CI", "ST/FST", "p(MW)",
	)
	for _, r := range rows {
		ratio := 0.0
		if r.MsgFST.Mean > 0 {
			ratio = r.MsgST.Mean / r.MsgFST.Mean
		}
		t.AddRow(r.N, r.MsgFST.Mean, r.MsgFST.CI95(), r.MsgST.Mean, r.MsgST.CI95(), ratio, r.PMsg)
	}
	return t
}

// OpsTable renders the ranking-work comparison backing the O(n²) vs
// O(n log n) complexity discussion.
func OpsTable(rows []Row) *metrics.Table {
	t := metrics.NewTable(
		"Ranking operations until convergence (basic scan vs ordered structure)",
		"nodes", "FST ops", "ST ops", "FST/ST",
	)
	for _, r := range rows {
		ratio := 0.0
		if r.OpsST.Mean > 0 {
			ratio = r.OpsFST.Mean / r.OpsST.Mean
		}
		t.AddRow(r.N, r.OpsFST.Mean, r.OpsST.Mean, ratio)
	}
	return t
}

// EnergyTable renders the battery-cost comparison (extension: the paper's
// power-saving motivation made measurable, per-device mJ to convergence).
func EnergyTable(rows []Row) *metrics.Table {
	t := metrics.NewTable(
		"Energy to convergence (LTE UE model; per-device mJ)",
		"nodes", "FST mJ/dev", "ST mJ/dev", "ST/FST",
	)
	for _, r := range rows {
		f := r.EnergyFST.Mean / float64(r.N)
		s := r.EnergyST.Mean / float64(r.N)
		ratio := 0.0
		if f > 0 {
			ratio = s / f
		}
		t.AddRow(r.N, f, s, ratio)
	}
	return t
}

// ActivityTable renders the per-run observability summary the telemetry
// layer surfaces: the active-slot ratio (slots the engine actually stepped
// over the span covered — the measured sparsity next-event stepping
// exploits) next to the battery cost. `d2dsim -exp activity -csv`
// dumps it for plotting.
func ActivityTable(rows []Row) *metrics.Table {
	t := metrics.NewTable(
		"Slot activity and energy to convergence (active = stepped/covered slots)",
		"nodes", "FST active", "ST active", "FST mJ", "ST mJ", "FST mJ/dev", "ST mJ/dev",
	)
	for _, r := range rows {
		t.AddRow(r.N, r.ActiveFST.Mean, r.ActiveST.Mean,
			r.EnergyFST.Mean, r.EnergyST.Mean,
			r.EnergyFST.Mean/float64(r.N), r.EnergyST.Mean/float64(r.N))
	}
	return t
}

// Fig3Chart renders the convergence-time sweep as a terminal line chart.
func Fig3Chart(rows []Row) *asciichart.Chart {
	return sweepChart(rows, "Fig. 3 — Convergence time (slots) vs. number of nodes", false,
		func(r Row) (float64, float64) { return r.TimeFST.Mean, r.TimeST.Mean })
}

// Fig4Chart renders the message-overhead sweep as a terminal line chart
// (log y-axis: the series span orders of magnitude).
func Fig4Chart(rows []Row) *asciichart.Chart {
	return sweepChart(rows, "Fig. 4 — Control messages vs. number of nodes (log scale)", true,
		func(r Row) (float64, float64) { return r.MsgFST.Mean, r.MsgST.Mean })
}

func sweepChart(rows []Row, title string, logY bool, pick func(Row) (fst, st float64)) *asciichart.Chart {
	c := &asciichart.Chart{Title: title, LogY: logY, Height: 18, Width: 66}
	fst := asciichart.Series{Name: "FST (existing)"}
	st := asciichart.Series{Name: "ST (proposed)"}
	for _, r := range rows {
		c.XLabels = append(c.XLabels, fmt.Sprintf("%d", r.N))
		f, s := pick(r)
		fst.Values = append(fst.Values, f)
		st.Values = append(st.Values, s)
	}
	c.Series = []asciichart.Series{fst, st}
	return c
}

// TableI renders the live simulation parameters — regenerating the paper's
// Table I from the actual configuration in use rather than from prose.
func TableI() *metrics.Table {
	cfg := core.PaperConfig(50, 1)
	t := metrics.NewTable("Table I — Simulation parameters", "Parameter", "Details")
	t.AddRow("Device Power", fmt.Sprintf("%v", cfg.TxPower))
	t.AddRow("Threshold", fmt.Sprintf("%v", cfg.Threshold))
	t.AddRow("Device Density", fmt.Sprintf("%d devices in %.0f m*%.0f m areas",
		cfg.N, cfg.Area.Width(), cfg.Area.Height()))
	t.AddRow("Fast Fading", cfg.Fading.String())
	t.AddRow("Shadowing Standard Deviation", fmt.Sprintf("%.0f dB", cfg.ShadowSigmaDB))
	t.AddRow("Time Slot", fmt.Sprintf("%.0f ms", units.SlotDurationMS))
	t.AddRow("Propagation Model in dB", "PL = 4.35 + 25log10(d) if d < 6; PL = 40.0 + 40log10(d) otherwise")
	t.AddRow("Firefly Period", fmt.Sprintf("%d slots", cfg.PeriodSlots))
	t.AddRow("PRC Coupling", fmt.Sprintf("alpha=%.4f beta=%.4f", cfg.Coupling.Alpha, cfg.Coupling.Beta))
	t.AddRow("Capture Margin", fmt.Sprintf("%.0f dB", cfg.CaptureMarginDB))
	return t
}
