// Command d2dsim runs the paper's experiments and ablations from the
// command line and prints the result tables (or CSV for plotting).
//
// Every -exp value is an entry of one registry (`d2dsim -h` lists them with
// a one-line help each). The sweep-backed entries — fig3, fig4, ops, energy,
// activity, recovery, delay and threeway over -sizes; the ablations, services,
// cdf and treequality at -n — run on the experiments sweep runner, so
// -workers, -slotworkers, -maxslots, -cache-dir, -progress and
// -telemetry-addr apply to all of them and their stdout is identical at any
// worker count. The rest run directly.
//
// Usage:
//
//	d2dsim -exp table1
//	d2dsim -exp fig3 -sizes 50,100,200,400,600,800,1000 -seeds 5
//	d2dsim -exp fig4 -csv
//	d2dsim -exp fig2 -n 17
//	d2dsim -exp ablation-shadowing -n 50 -seeds 3 -workers 4
//	d2dsim -exp ablation-topology -n 50 -seeds 3 -cache-dir cache -progress
//	d2dsim -exp ablation-search -sizes 32,128,512
//	d2dsim -exp threeway -sizes 50,200 -seeds 3
//	d2dsim -exp single -proto ST -n 200 -seed 7
//	d2dsim -exp single -proto ST -n 1000 -cpuprofile cpu.pprof -memprofile mem.pprof
//	d2dsim -exp single -proto ST -n 200 -report run.json
//	d2dsim -exp single -proto ST -n 200 -faults plan.json
//	d2dsim -exp single -proto ST -n 200 -net netplan.json
//	d2dsim -exp delay -sizes 50,200 -seeds 5
//	d2dsim -exp single -proto FST -n 200 -checkpoint-every 500 -checkpoint ck.json
//	d2dsim -exp single -proto FST -n 200 -resume ck.json
//	d2dsim -exp recovery -sizes 50,100,200 -seeds 5
//	d2dsim -exp fig3 -telemetry-addr :8080
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/asciichart"
	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/manifest"
	"repro/internal/metrics"
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() {
	var (
		exp         = flag.String("exp", "fig3", expUsage())
		sizesStr    = flag.String("sizes", "50,100,200,400,600,800,1000", "comma-separated device counts for sweeps")
		seeds       = flag.Int("seeds", 5, "repetitions per sweep point")
		baseSeed    = flag.Int64("seed", 1, "base seed")
		n           = flag.Int("n", 50, "device count for single-size experiments")
		proto       = flag.String("proto", "ST", "protocol for -exp single: FST or ST")
		maxSlots    = flag.Int64("maxslots", 0, "override the per-run slot cap of single runs and sweeps (0 = default; ablation-drift keeps its fixed 60000-slot cap)")
		workers     = flag.Int("workers", 0, "sweep worker pool size (0 = NumCPU)")
		slotWorkers = flag.Int("slotworkers", 0, "per-run engine workers (0/1 = single-threaded, <0 = NumCPU); the spatial shard count follows from -n and this; results are identical for every value")
		csv         = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		plot        = flag.Bool("plot", false, "also draw fig3/fig4 as a terminal line chart")
		cfgPath     = flag.String("config", "", "run -exp single from a JSON manifest (overrides -n/-seed)")
		savePath    = flag.String("saveconfig", "", "write the default manifest for -n/-seed to this path and exit")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
		reportPath  = flag.String("report", "", "write a machine-readable telemetry report (JSON: config digest, result, probe series) of a single/-config run to this file")
		faultsPath  = flag.String("faults", "", "inject a JSON fault plan (crashes, recoveries, joins, clock jumps, outages, loss, partitions) into a single/-config run")
		netPath     = flag.String("net", "", "attach a JSON asynchrony plan (bounded message delay, reordering, duplication, loss) to a single/-config run")
		telAddr     = flag.String("telemetry-addr", "", "serve live metrics on this address (/metrics Prometheus text, /debug/vars expvar, /debug/pprof/)")
		prefixSlots = flag.Int64("prefix-slots", -1, "shared checkpoint-prefix reuse cadence for branching sweeps (-exp recovery): the reference run checkpoints in memory every N slots and each derived faulted run resumes from the latest usable checkpoint instead of replaying the shared prefix; -1 auto-selects five firing periods, 0 disables; row results are identical either way")
		cacheDir    = flag.String("cache-dir", "", "content-addressed result cache directory for sweeps: finished runs are stored under their config digest and identical re-runs are served from the cache instead of re-simulated")
		ckEvery     = flag.Int64("checkpoint-every", 0, "capture a checkpoint of a single/-config run every N slots (requires -checkpoint)")
		ckPath      = flag.String("checkpoint", "", "file the latest checkpoint is written to (atomically; each checkpoint replaces the previous one)")
		resumePath  = flag.String("resume", "", "resume a single/-config run from a checkpoint file; the config and -proto must match the run that wrote it")
		runStats    = flag.Bool("runstats", false, "collect and print engine self-measurement for a single/-config run: per-phase time attribution (the protocol's own rounds included), per-shard load imbalance, stepped/skipped slots, checkpoint cost; results are bit-identical with or without it")
		progress    = flag.Bool("progress", false, "stream one JSONL progress line per completed sweep job to stderr (done/total, cache reuse, prefix resumption, elapsed wall time)")
		version     = flag.Bool("version", false, "print build info (module, VCS revision, Go version) and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(manifest.CollectBuildInfo())
		return
	}

	ck := checkpointOpts{every: *ckEvery, path: *ckPath, resume: *resumePath}
	if err := ck.check(); err != nil {
		fmt.Fprintln(os.Stderr, "d2dsim:", err)
		os.Exit(1)
	}

	var vars *telemetry.Vars
	if *telAddr != "" {
		vars = &telemetry.Vars{}
		srv, bound, err := telemetry.Serve(*telAddr, vars)
		if err != nil {
			fmt.Fprintln(os.Stderr, "d2dsim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving /metrics, /debug/vars, /debug/pprof/ on http://%s\n", bound)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "d2dsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "d2dsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "d2dsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "d2dsim:", err)
			}
		}()
	}

	if *savePath != "" {
		if err := manifest.Default(*n, *baseSeed).Save(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, "d2dsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote manifest for n=%d seed=%d to %s\n", *n, *baseSeed, *savePath)
		return
	}
	plan, err := loadFaults(*faultsPath, *proto)
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2dsim:", err)
		os.Exit(1)
	}
	netPlan, err := loadNet(*netPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2dsim:", err)
		os.Exit(1)
	}

	opts := runOpts{
		exp: *exp, config: *cfgPath, sizes: *sizesStr, seeds: *seeds, baseSeed: *baseSeed,
		n: *n, proto: *proto, maxSlots: *maxSlots,
		workers: *workers, slotWorkers: *slotWorkers,
		prefixSlots: *prefixSlots, cacheDir: *cacheDir,
		csv: *csv, plot: *plot, report: *reportPath, faults: plan, net: netPlan, vars: vars,
		checkpoint: ck, runStats: *runStats, progress: *progress,
	}
	if opts.config != "" {
		opts.exp = "single"
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "d2dsim:", err)
		os.Exit(1)
	}
}

// runOpts collects the command's knobs: which experiment, sweep shape,
// throughput settings, output format, and the observability sinks.
type runOpts struct {
	exp      string // experiment name
	config   string // manifest a single run starts from ("" = the default for n, baseSeed)
	sizes    string // comma-separated sweep sizes
	seeds    int    // repetitions per sweep point
	baseSeed int64
	n        int    // device count for single-size experiments
	proto    string // protocol for -exp single
	maxSlots int64  // per-run slot cap override (0 = default)
	workers  int    // sweep worker pool size
	// slotWorkers is the per-run throughput knob; results are
	// bit-identical for every setting.
	slotWorkers int
	// prefixSlots arms shared checkpoint-prefix reuse in branching sweeps
	// (-exp recovery); cacheDir enables the content-addressed result cache.
	// Both are throughput knobs: sweep rows are identical either way.
	prefixSlots int64
	cacheDir    string
	csv, plot   bool
	// report, when set, writes the single run's telemetry report there.
	report string
	// faults, when non-nil, is the fault plan injected into single runs.
	faults *faults.Plan
	// net, when non-nil, is the asynchrony plan attached to single runs.
	net *asyncnet.Plan
	// vars, when non-nil, receives live metric updates for -telemetry-addr.
	vars *telemetry.Vars
	// checkpoint carries the -checkpoint-every/-checkpoint/-resume flags,
	// applied to single runs only.
	checkpoint checkpointOpts
	// runStats arms engine self-measurement on single/-config runs; the
	// sweep drivers' concurrent workers would race on one accumulator, so
	// sweeps expose cache counters and -progress instead.
	runStats bool
	// progress streams JSONL per-job progress lines to stderr on sweeps.
	progress bool
}

// checkpointOpts wires the checkpoint/resume flags into a single run.
type checkpointOpts struct {
	every  int64  // -checkpoint-every
	path   string // -checkpoint
	resume string // -resume
}

func (c checkpointOpts) check() error {
	if c.every < 0 {
		return fmt.Errorf("-checkpoint-every %d is negative", c.every)
	}
	if (c.every > 0) != (c.path != "") {
		return fmt.Errorf("-checkpoint-every and -checkpoint must be used together")
	}
	return nil
}

// apply loads the -resume snapshot (pre-validating the protocol tag — the
// config itself is cross-checked by cfg.Validate via N, seed and slot cap)
// and installs the checkpoint writer. Each checkpoint atomically replaces the
// -checkpoint file, so an interrupted run leaves the latest complete one.
// rs, when non-nil, receives the sink-side encode cost of each checkpoint.
func (c checkpointOpts) apply(cfg *core.Config, proto string, rs *telemetry.RunStats) error {
	if c.resume != "" {
		data, err := os.ReadFile(c.resume)
		if err != nil {
			return err
		}
		st, err := snapshot.Decode(data)
		if err != nil {
			return err
		}
		if st.Protocol != strings.ToUpper(proto) {
			return fmt.Errorf("checkpoint %s is a %s run, -proto is %s", c.resume, st.Protocol, proto)
		}
		cfg.Resume = st
	}
	if c.every > 0 {
		cfg.CheckpointEvery = units.Slot(c.every)
		path := c.path
		cfg.OnCheckpoint = func(st *snapshot.State) {
			if err := writeCheckpoint(path, st, rs); err != nil {
				fmt.Fprintln(os.Stderr, "d2dsim: checkpoint:", err)
			}
		}
	}
	return nil
}

func writeCheckpoint(path string, st *snapshot.State, rs *telemetry.RunStats) error {
	t0 := time.Now()
	data, err := snapshot.Encode(st)
	if err != nil {
		return err
	}
	rs.AddEncode(len(data), time.Since(t0))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadFaults reads the -faults plan, if any. The centralized baseline has
// no distributed topology to repair, so the fault layer rejects it.
func loadFaults(path, proto string) (*faults.Plan, error) {
	if path == "" {
		return nil, nil
	}
	if strings.EqualFold(proto, "BS") {
		return nil, fmt.Errorf("-faults is not supported for the BS baseline (no tree to repair)")
	}
	return faults.Load(path)
}

// loadNet reads the -net asynchrony plan, if any. The plan is validated here
// for early CLI feedback; cfg.Validate re-checks it against the period and
// the collision model. The BS baseline runs its discovery phase through the
// same engine, so the adversary applies to it unchanged.
func loadNet(path string) (*asyncnet.Plan, error) {
	if path == "" {
		return nil, nil
	}
	return asyncnet.Load(path)
}

// attachNet wires an asynchrony plan into a run config and applies the
// hardened-protocol discipline an active adversary requires: a bounded
// jump budget (JumpsPerCycle >= 1, DESIGN.md §14 — the paper's unlimited
// budget lets in-flight pulse density compress the effective period out
// of the convergent regime). A config that already bounds the budget is
// left alone; without an adversary nothing changes, so plain runs keep
// the paper's dynamics bit-for-bit.
func attachNet(cfg *core.Config, plan *asyncnet.Plan) {
	cfg.Net = plan
	if plan != nil && !plan.Degenerate() && cfg.JumpsPerCycle < 1 {
		cfg.JumpsPerCycle = 1
	}
}

// printRunStats renders the engine attribution table of a finished run and
// folds the accumulation into the live registry (both nil-safe).
func printRunStats(rs *telemetry.RunStats, vars *telemetry.Vars) {
	if rs == nil {
		return
	}
	fmt.Print(rs.Report().FormatTable())
	rs.Publish(vars)
}

// printCacheStats reports how well the sweep-level caches worked — the
// geometry memoization every driver shares and the result cache when one is
// attached — and folds the counters into the live registry so /metrics
// carries them too.
func printCacheStats(cache *experiments.ResultCache, geom *core.GeometryCache, vars *telemetry.Vars) {
	if hits, misses := geom.Stats(); hits+misses > 0 {
		fmt.Printf("geometry cache: %d hits, %d misses\n", hits, misses)
		vars.SetGeometryCacheStats(hits, misses)
	}
	if cache != nil {
		hits, misses := cache.Stats()
		evictions := cache.Evictions()
		fmt.Printf("result cache: %d hits, %d misses, %d evictions\n", hits, misses, evictions)
		vars.SetResultCacheStats(hits, misses, evictions)
	}
}

// attachTelemetry wires a telemetry run into cfg when either observability
// sink wants one: sampling every period into the default-capacity ring, live
// counters feeding vars. Returns nil (telemetry disabled) when neither the
// report path nor the live registry is set.
func attachTelemetry(cfg *core.Config, report string, vars *telemetry.Vars) *telemetry.Run {
	if report == "" && vars == nil {
		return nil
	}
	telRun := telemetry.NewRun(units.Slot(cfg.PeriodSlots), 0)
	telRun.Live = vars
	cfg.Telemetry = telRun
	return telRun
}

// recordSingle folds a finished single run into the live registry. Stepped
// slots were already counted live through Run.Live, so only the span, the
// completion and the traffic are added here.
func recordSingle(vars *telemetry.Vars, n int, res core.Result) {
	vars.RecordResult(n, res.Converged, 0, res.TotalSlots, res.Counters.TotalTx())
	if res.Net != nil {
		vars.AddNetStats(res.Net.Delayed, res.Net.Duplicated, res.Net.Lost, res.Net.Rejected, res.Net.Peak)
	}
}

// writeReport assembles and writes the machine-readable run report: schema,
// protocol, config identity (digest + embedded manifest and plans), result
// scalars, the probe series, the engine attribution section (when -runstats
// collected one) and the producing binary's build provenance.
func writeReport(path, proto string, m manifest.Manifest, plan *faults.Plan, netPlan *asyncnet.Plan, telRun *telemetry.Run, rs *telemetry.RunStats, res core.Result, collisions uint64) error {
	rep := telRun.BuildReport(proto, summarize(res, collisions))
	var err error
	if rep.Manifest, err = json.Marshal(m); err != nil {
		return err
	}
	if plan != nil {
		if rep.Faults, err = json.Marshal(plan); err != nil {
			return err
		}
	}
	if netPlan != nil {
		if rep.Net, err = json.Marshal(netPlan); err != nil {
			return err
		}
	}
	rep.ConfigDigest = runDigest(rep.Manifest, rep.Faults, rep.Net)
	rep.RunStats = rs.Report()
	if bi := manifest.CollectBuildInfo(); bi != (telemetry.BuildInfo{}) {
		rep.Build = &bi
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote telemetry report (%d samples) to %s\n", len(rep.Series), path)
	return nil
}

// runDigest is the identity of a run: the SHA-256 of the manifest JSON and,
// each under its own label, the fault and asynchrony plan JSON it ran with.
// A run without plans hashes the manifest alone, which is Manifest.Digest.
func runDigest(manifestJSON, faultsJSON, netJSON []byte) string {
	h := sha256.New()
	h.Write(manifestJSON)
	if faultsJSON != nil {
		h.Write([]byte("\nfaults:"))
		h.Write(faultsJSON)
	}
	if netJSON != nil {
		h.Write([]byte("\nnet:"))
		h.Write(netJSON)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summarize flattens a core.Result into the report's JSON-stable scalars.
func summarize(res core.Result, collisions uint64) telemetry.ResultSummary {
	return telemetry.ResultSummary{
		Converged:        res.Converged,
		ConvergenceSlots: res.ConvergenceSlots,
		TotalTx:          res.Counters.TotalTx(),
		Rach1Tx:          res.Counters.Tx[rach.RACH1],
		Rach2Tx:          res.Counters.Tx[rach.RACH2],
		Collisions:       collisions,
		Ops:              res.Ops,
		DiscoveredLinks:  res.DiscoveredLinks,
		ServiceDiscovery: res.ServiceDiscovery,
		ActiveSlots:      res.ActiveSlots,
		TotalSlots:       res.TotalSlots,
		EnergyMJ:         res.Energy.TotalMJ,
		TreeEdges:        len(res.TreeEdges),
		TreePhases:       res.TreePhases,
		Recoveries:       res.Recoveries,
		RecoverySlots:    res.RecoverySlots,
		Repairs:          res.Repairs,
	}
}

// printRecovery reports the self-healing outcome of a faulted run.
func printRecovery(plan *faults.Plan, res core.Result) {
	if plan == nil {
		return
	}
	fmt.Printf("recovery: %d repairs, %d episodes, %d recovery slots\n",
		res.Repairs, res.Recoveries, res.RecoverySlots)
}

// printNet reports the message adversary's activity on a run with an
// asynchrony plan attached (degenerate plans leave Result.Net nil — the
// runtime was never constructed).
func printNet(plan *asyncnet.Plan, res core.Result) {
	if plan == nil {
		return
	}
	fmt.Printf("asynchrony: %s\n", plan)
	if res.Net != nil {
		fmt.Printf("net: %d delayed, %d duplicated, %d lost, %d rejected, peak %d in flight\n",
			res.Net.Delayed, res.Net.Duplicated, res.Net.Lost, res.Net.Rejected, res.Net.Peak)
	}
}

// printSlotRatio reports how much of the slot span the engine actually
// stepped — the sparsity its speed comes from.
func printSlotRatio(res core.Result) {
	if res.TotalSlots == 0 {
		return
	}
	fmt.Printf("active slots: %d/%d (%.1f%%)\n",
		res.ActiveSlots, res.TotalSlots, 100*float64(res.ActiveSlots)/float64(res.TotalSlots))
}

func protocolByName(name string) (core.Protocol, error) {
	switch strings.ToUpper(name) {
	case "FST":
		return core.FST{}, nil
	case "ST":
		return core.ST{}, nil
	case "BS":
		return core.Centralized{}, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}

// expKind says how an experiment gets its options: sweep-backed kinds run on
// the experiments sweep runner with the shared sweepOpts, over the -sizes
// list (sweepSizes) or the single size -n (sweepN); direct ones read the
// flags themselves.
type expKind int

const (
	direct expKind = iota
	sweepSizes
	sweepN
)

// experiment is one -exp entry of the registry.
type experiment struct {
	name string
	help string
	kind expKind
	run  func(*session) error
}

// session is what an experiment's run func sees: the command's knobs and,
// for sweep-backed kinds, the options of the sweep runner.
type session struct {
	runOpts
	sweep experiments.Options
}

// emit writes t to stdout as an aligned table, or CSV under -csv.
func (s *session) emit(t *metrics.Table) error {
	if s.csv {
		return t.RenderCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

// table adapts a driver that builds one table to a run func that emits it.
func table(build func(*session) (*metrics.Table, error)) func(*session) error {
	return func(s *session) error {
		t, err := build(s)
		if err != nil {
			return err
		}
		return s.emit(t)
	}
}

// onSweep is table for a driver that builds its table from the sweep
// options.
func onSweep(driver func(experiments.Options) (*metrics.Table, error)) func(*session) error {
	return table(func(s *session) (*metrics.Table, error) { return driver(s.sweep) })
}

// emitRows runs a row driver on the sweep options and emits the table
// render makes of its rows, then, under -plot, the chart draws (when
// non-nil), and with stats the cache counters.
func emitRows[R any](driver func(experiments.Options) ([]R, error), render func([]R) *metrics.Table, chart func([]R) *asciichart.Chart, stats bool) func(*session) error {
	return func(s *session) error {
		rows, err := driver(s.sweep)
		if err != nil {
			return err
		}
		if err := s.emit(render(rows)); err != nil {
			return err
		}
		if s.plot && chart != nil {
			out, err := chart(rows).Render()
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Print(out)
		}
		if stats {
			printCacheStats(s.sweep.Cache, s.sweep.Geometry, s.vars)
		}
		return nil
	}
}

// registry lists every -exp value. The -exp help text and the
// unknown-experiment error are generated from it.
var registry = []experiment{
	{"table1", "Table I: the live simulation parameters", direct, table(func(*session) (*metrics.Table, error) {
		return experiments.TableI(), nil
	})},
	{"fig2", "Fig. 2: the ST spanning tree over -n UEs", direct, runFig2},
	{"fig3", "Fig. 3: convergence time vs. scale over -sizes (-plot draws it)", sweepSizes,
		emitRows(experiments.RunSweep, experiments.Fig3Table, experiments.Fig3Chart, false)},
	{"fig4", "Fig. 4: control messages vs. scale over -sizes (-plot draws it)", sweepSizes,
		emitRows(experiments.RunSweep, experiments.Fig4Table, experiments.Fig4Chart, false)},
	{"ops", "ranking operations vs. scale over -sizes", sweepSizes,
		emitRows(experiments.RunSweep, experiments.OpsTable, nil, false)},
	{"energy", "battery cost to convergence over -sizes", sweepSizes,
		emitRows(experiments.RunSweep, experiments.EnergyTable, nil, false)},
	{"activity", "active-slot ratio and energy over -sizes", sweepSizes,
		emitRows(experiments.RunSweep, experiments.ActivityTable, nil, true)},
	{"recovery", "self-healing after a 20% crash wave over -sizes", sweepSizes,
		emitRows(experiments.RunRecoverySweep, experiments.RecoveryTable, nil, true)},
	{"delay", "convergence and recovery under bounded message delay over -sizes", sweepSizes,
		emitRows(experiments.RunDelaySweep, experiments.DelayTable, nil, true)},
	{"threeway", "FST vs ST vs the BS-assisted reference over -sizes", sweepSizes, onSweep(experiments.ThreeWay)},
	{"ablation-shadowing", "ablation A: ST vs shadowing sigma at -n", sweepN, onSweep(experiments.AblationShadowing)},
	{"ablation-topology", "ablation B: tree vs mesh coupling at -n", sweepN, onSweep(experiments.AblationTopology)},
	{"ablation-search", "ablation C: Algorithm 3 basic vs ordered over -sizes", direct, table(func(s *session) (*metrics.Table, error) {
		sizes, err := parseSizes(s.sizes)
		if err != nil {
			return nil, err
		}
		return experiments.AblationSearch(sizes, 5, s.baseSeed)
	})},
	{"ablation-drift", "ablation D: clock drift tolerance at -n", sweepN, onSweep(experiments.AblationDrift)},
	{"ablation-preambles", "ablation E: PRACH preamble pool size at -n", sweepN, onSweep(experiments.AblationPreambles)},
	{"ablation-detection", "ablation F: threshold vs SINR detection at -n", sweepN, onSweep(experiments.AblationDetection)},
	{"ablation-channel", "ablation G: i.i.d. vs correlated channel at -n", sweepN, onSweep(experiments.AblationChannel)},
	{"ablation-capture", "ablation H: capture margin at -n", sweepN, onSweep(experiments.AblationCapture)},
	{"services", "service-interest groups at -n", sweepN, onSweep(experiments.Services)},
	{"cdf", "convergence-time percentiles at -n (>= 3 seeds)", sweepN, onSweep(experiments.ConvergenceDistribution)},
	{"treequality", "tree weight vs ideal and hop stretch at -n", sweepN, onSweep(experiments.TreeQuality)},
	{"timeline", "discovery and synchrony progress of one ST run at -n", direct, table(func(s *session) (*metrics.Table, error) {
		return experiments.Timeline(s.n, s.baseSeed)
	})},
	{"mobility", "ST re-convergence after pedestrian walks at -n", direct, table(func(s *session) (*metrics.Table, error) {
		return experiments.Mobility(s.n, 4, 120, s.baseSeed)
	})},
	{"discovery", "neighbour-discovery baselines at -n", direct, table(func(s *session) (*metrics.Table, error) {
		return experiments.DiscoverySchedules(s.n, s.baseSeed, s.maxSlots)
	})},
	{"underlay", "D2D underlay capacity on one cell", direct, table(func(s *session) (*metrics.Table, error) {
		return experiments.Underlay(nil, s.baseSeed)
	})},
	{"single", "one -proto run at -n (faults, net, checkpoints, report, runstats)", direct, runSingle},
}

// lookup returns the registered experiment called name.
func lookup(name string) (experiment, error) {
	for _, e := range registry {
		if e.name == name {
			return e, nil
		}
	}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return experiment{}, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(names, ", "))
}

// expUsage is the -exp flag's help text: one line per registered experiment.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiment to run:")
	for _, e := range registry {
		fmt.Fprintf(&b, "\n  %-19s %s", e.name, e.help)
	}
	return b.String()
}

func run(o runOpts) error {
	e, err := lookup(o.exp)
	if err != nil {
		return err
	}
	s := &session{runOpts: o}
	if e.kind != direct {
		if s.sweep, err = s.sweepOpts(e.kind); err != nil {
			return err
		}
	}
	return e.run(s)
}

// sweepOpts are the options every sweep-backed experiment runs with; each
// driver reads only the fields it uses (only the recovery sweep reads
// PrefixSlots). They carry their own caches so the counters can be surfaced
// after the run (and on /metrics).
func (s *session) sweepOpts(kind expKind) (experiments.Options, error) {
	sizes := []int{s.n}
	if kind == sweepSizes {
		var err error
		if sizes, err = parseSizes(s.sizes); err != nil {
			return experiments.Options{}, err
		}
	}
	var cache *experiments.ResultCache
	if s.cacheDir != "" {
		cache = experiments.NewResultCache(0, s.cacheDir)
	}
	var progW io.Writer
	if s.progress {
		progW = os.Stderr
	}
	var onResult func(int, string, core.Result)
	if vars := s.vars; vars != nil {
		onResult = func(n int, _ string, res core.Result) {
			vars.RecordResult(n, res.Converged, res.ActiveSlots, res.TotalSlots, res.Counters.TotalTx())
			if res.Net != nil {
				vars.AddNetStats(res.Net.Delayed, res.Net.Duplicated, res.Net.Lost, res.Net.Rejected, res.Net.Peak)
			}
		}
	}
	return experiments.Options{
		Sizes: sizes, Seeds: s.seeds, BaseSeed: s.baseSeed,
		MaxSlots: units.Slot(s.maxSlots), Workers: s.workers,
		SlotWorkers: s.slotWorkers,
		PrefixSlots: units.Slot(s.prefixSlots),
		OnResult:    onResult, Cache: cache,
		Progress: progW, Geometry: core.NewGeometryCache(),
	}, nil
}

func runFig2(s *session) error {
	f, err := experiments.Fig2Tree(s.n, s.baseSeed)
	if err != nil {
		return err
	}
	fmt.Print(f.Render())
	return nil
}

// runSingle runs one protocol from the -config manifest, or the default
// manifest for -n and -seed, with the single-run flags applied on top. The
// slot cap is part of the manifest; the other flags are not model
// parameters (workers, observability) or travel in the report next to it
// (the fault and asynchrony plans).
func runSingle(s *session) error {
	o := s.runOpts
	m := manifest.Default(o.n, o.baseSeed)
	if o.config != "" {
		var err error
		if m, err = manifest.Load(o.config); err != nil {
			return err
		}
	}
	if o.maxSlots > 0 {
		m.MaxSlots = o.maxSlots
	}
	cfg, err := m.ToConfig()
	if err != nil {
		return err
	}
	cfg.Workers = o.slotWorkers
	cfg.Faults = o.faults
	attachNet(&cfg, o.net)
	var rs *telemetry.RunStats
	if o.runStats {
		rs = telemetry.NewRunStats()
		cfg.RunStats = rs
	}
	if err := o.checkpoint.apply(&cfg, o.proto, rs); err != nil {
		return err
	}
	telRun := attachTelemetry(&cfg, o.report, o.vars)
	env, err := core.NewEnv(cfg)
	if err != nil {
		return err
	}
	p, err := protocolByName(o.proto)
	if err != nil {
		return err
	}
	res := p.Run(env)
	fmt.Println(res)
	fmt.Printf("energy: %v\n", res.Energy)
	fmt.Printf("service discovery: %.1f%%, discovered links: %d\n",
		100*res.ServiceDiscovery, res.DiscoveredLinks)
	printSlotRatio(res)
	printRecovery(o.faults, res)
	printNet(o.net, res)
	if res.TreeEdges != nil {
		fmt.Printf("tree: %d edges over %d phases, weight %.1f\n",
			len(res.TreeEdges), res.TreePhases, res.TreeWeight)
	}
	recordSingle(o.vars, cfg.N, res)
	printRunStats(rs, o.vars)
	if o.report != "" {
		return writeReport(o.report, p.Name(), m, o.faults, o.net, telRun, rs, res, env.Transport.Collisions())
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
