// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (Section V), plus the ablations listed in
// DESIGN.md. Each driver returns a metrics.Table whose rows are the series
// the paper plots, so `d2dsim` can print them or dump CSV for plotting.
//
// Runs fan out over a worker pool (one goroutine per CPU by default); every
// (size, seed, protocol) job builds its own Env from a derived seed, so
// results are bit-identical regardless of scheduling.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/asciichart"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/units"
)

// Options configures a sweep.
type Options struct {
	// Sizes are the device counts to sweep (Fig. 3/4 x-axis).
	Sizes []int
	// Seeds is the number of repetitions per size.
	Seeds int
	// BaseSeed offsets the derived per-run seeds.
	BaseSeed int64
	// MaxSlots overrides the per-run slot cap (0 keeps the default).
	MaxSlots units.Slot
	// Workers bounds the run-level worker pool (0 = NumCPU).
	Workers int
	// SlotWorkers sets each run's intra-slot engine parallelism
	// (core.Config.Workers): 0 or 1 single-threaded, >1 that many
	// workers, <0 one per CPU. Slot-level and run-level parallelism compose —
	// slot-level pays off for few large runs, run-level for many small
	// ones. Results are bit-identical for every setting.
	SlotWorkers int
	// Configure, when non-nil, post-processes each run's Config (used by
	// the ablations). It must be a pure function of its input: the sweep
	// shares one geometry memoization across all runs, whose contract is
	// that runs with equal (N, Seed, Area, TxPower, Threshold,
	// ShadowSigmaDB) use the same path-loss model.
	Configure func(*core.Config)
	// OnResult, when non-nil, observes every finished run (live telemetry:
	// `d2dsim -telemetry-addr` feeds its metric registry from here). Called
	// concurrently from the sweep workers — implementations must be
	// goroutine-safe and must not mutate the Result. It fires exactly once
	// per observed run whether the Result was simulated or served from
	// Cache — a cached hit is still one logical run of the sweep.
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
	// RunSweep ignores it — its jobs share no trajectory, only geometry.
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
	// `d2dsim -exp recovery`/`-exp activity` summaries). Same contract as
	// the internal cache: Configure must be a pure function of its input.
	Geometry *core.GeometryCache
}

// DefaultOptions mirrors the paper's sweep: 50 to 1000 devices at the
// Table I density, five seeds per point.
func DefaultOptions() Options {
	return Options{
		Sizes:    []int{50, 100, 200, 400, 600, 800, 1000},
		Seeds:    5,
		BaseSeed: 1,
	}
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

type job struct {
	n     int
	seed  int64
	proto core.Protocol
}

type outcome struct {
	n   int
	fst bool
	res core.Result
}

// RunSweep executes the sweep and returns one row per size, ordered by N.
func RunSweep(opts Options) ([]Row, error) {
	if len(opts.Sizes) == 0 || opts.Seeds < 1 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	var jobs []job
	for _, n := range opts.Sizes {
		for s := 0; s < opts.Seeds; s++ {
			seed := opts.BaseSeed + int64(s)
			jobs = append(jobs, job{n: n, seed: seed, proto: core.FST{}})
			jobs = append(jobs, job{n: n, seed: seed, proto: core.ST{}})
		}
	}

	// One geometry memoization per sweep: the FST and ST member of a job
	// pair (and every seed-sharing variant) deploy the same world, so the
	// link-geometry pass runs once per distinct (n, seed) instead of once
	// per run. Safe because Configure is a pure function of its input (see
	// the Options doc), so PathLoss is uniform per cache key.
	geom := opts.Geometry
	if geom == nil {
		geom = core.NewGeometryCache()
	}

	prog := newProgressReporter(opts.Progress, "sweep", len(jobs), opts.Cache)
	jobCh := make(chan job)
	outCh := make(chan outcome, len(jobs))
	errCh := make(chan error, workers)
	// abort unblocks the producer when a worker bails: without it, workers
	// exiting on error while the producer is parked on the unbuffered jobCh
	// send would deadlock the sweep (regression-tested in prefix_test.go).
	abort := make(chan struct{})
	var abortOnce sync.Once
	fail := func(err error) {
		errCh <- err
		abortOnce.Do(func() { close(abort) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				cfg := core.PaperConfig(j.n, j.seed)
				cfg.Workers = opts.SlotWorkers
				if opts.MaxSlots > 0 {
					cfg.MaxSlots = opts.MaxSlots
				}
				if opts.Configure != nil {
					opts.Configure(&cfg)
				}
				cfg.Geometry = geom
				key, cacheable := "", false
				if opts.Cache != nil {
					key, cacheable = CacheKey(cfg, j.proto.Name())
					if cacheable {
						if res, hit := opts.Cache.Get(key); hit {
							if opts.OnResult != nil {
								opts.OnResult(j.n, j.proto.Name(), res)
							}
							prog.jobDone(j.n, j.proto.Name(), true, false)
							outCh <- outcome{n: j.n, fst: j.proto.Name() == "FST", res: res}
							continue
						}
					}
				}
				env, err := core.NewEnv(cfg)
				if err != nil {
					fail(err)
					return
				}
				res := j.proto.Run(env)
				if cacheable {
					opts.Cache.Put(key, res)
				}
				if opts.OnResult != nil {
					opts.OnResult(j.n, j.proto.Name(), res)
				}
				prog.jobDone(j.n, j.proto.Name(), false, false)
				outCh <- outcome{n: j.n, fst: j.proto.Name() == "FST", res: res}
			}
		}()
	}
feed:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-abort:
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	close(outCh)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	type acc struct {
		tFST, tST, mFST, mST, oFST, oST, eFST, eST, aFST, aST, phases []float64
		cFST, cST                                                     int
	}
	byN := make(map[int]*acc)
	for o := range outCh {
		a := byN[o.n]
		if a == nil {
			a = &acc{}
			byN[o.n] = a
		}
		t := float64(o.res.ConvergenceSlots)
		m := float64(o.res.Counters.TotalTx())
		ops := float64(o.res.Ops)
		active := 1.0
		if o.res.TotalSlots > 0 {
			active = float64(o.res.ActiveSlots) / float64(o.res.TotalSlots)
		}
		if o.fst {
			a.tFST = append(a.tFST, t)
			a.mFST = append(a.mFST, m)
			a.oFST = append(a.oFST, ops)
			a.eFST = append(a.eFST, o.res.Energy.TotalMJ)
			a.aFST = append(a.aFST, active)
			if o.res.Converged {
				a.cFST++
			}
		} else {
			a.tST = append(a.tST, t)
			a.mST = append(a.mST, m)
			a.oST = append(a.oST, ops)
			a.eST = append(a.eST, o.res.Energy.TotalMJ)
			a.aST = append(a.aST, active)
			a.phases = append(a.phases, float64(o.res.TreePhases))
			if o.res.Converged {
				a.cST++
			}
		}
	}

	rows := make([]Row, 0, len(byN))
	for n, a := range byN {
		_, pTime := metrics.MannWhitneyU(a.tFST, a.tST)
		_, pMsg := metrics.MannWhitneyU(a.mFST, a.mST)
		rows = append(rows, Row{
			PTime:      pTime,
			PMsg:       pMsg,
			N:          n,
			TimeFST:    metrics.Summarize(a.tFST),
			TimeST:     metrics.Summarize(a.tST),
			MsgFST:     metrics.Summarize(a.mFST),
			MsgST:      metrics.Summarize(a.mST),
			OpsFST:     metrics.Summarize(a.oFST),
			OpsST:      metrics.Summarize(a.oST),
			EnergyFST:  metrics.Summarize(a.eFST),
			EnergyST:   metrics.Summarize(a.eST),
			ActiveFST:  metrics.Summarize(a.aFST),
			ActiveST:   metrics.Summarize(a.aST),
			ConvFST:    a.cFST,
			ConvST:     a.cST,
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
