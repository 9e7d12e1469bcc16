// Command perfbench is the repository's benchmark: it times the jobs people
// run with this simulator end to end, and attributes their time to layers.
// It drives the simulator only through public calls (core.NewEnv,
// Protocol.Run, core.GeometryCache, Config.OnCheckpoint/Resume,
// snapshot.Encode/Decode, Config.RunStats) and checks every run's output.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload fig3-dense --seed 1 --seconds 30 --trace 0
//
// A run repeats the workload's round until --seconds have passed and reports
// the median round. With --trace 1 it also runs one traced round and the
// layer microbenchmarks and reports the per-layer metrics instead. The last
// line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/manifest"
)

// defaultSeed and heldOutSeed are the workload seeds whose run outputs are
// pinned in pins.go, for their first pinnedRounds rounds; the held-out seed
// re-checks a claim on inputs not used while writing it.
const (
	defaultSeed  = 1
	heldOutSeed  = 2
	pinnedRounds = 12
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// sample is one untraced round's end-to-end measurement.
type sample struct {
	wall, setup, cpu time.Duration
	allocMB          float64
	calib            time.Duration
}

func main() {
	workloadName := flag.String("workload", "", "workload name: fig3-dense, prose-sparse or async-recovery")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the inputs are a function of it")
	seconds := flag.Int("seconds", 30, "how long to repeat untraced rounds")
	trace := flag.Int("trace", 0, "1 runs the traced round and reports per-layer metrics")
	emitPins := flag.Bool("emit-pins", false, "run the pinned rounds and print their outputs as pins.go entries")
	flag.Parse()
	// One core for everything, the garbage collector included: the
	// workloads are single-goroutine, and a collector running on a second
	// core of a shared host measures the neighbours' load, not the program.
	runtime.GOMAXPROCS(1)

	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *emitPins {
		for idx := 0; idx < pinnedRounds; idx++ {
			for _, rec := range runRound(w, *seed, idx, nil, nil).records {
				p := pinOf(rec.res)
				fmt.Printf("\t%q: {%v, %d, %d},\n", rec.key, p.converged, p.slots, p.tx)
			}
		}
		return
	}

	res, info := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if *trace == 1 {
		path := fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, *seed)
		if err := info.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(1)
		}
		info.host["spans"] = path
	}
	printJSON(map[string]any{"host": info.host, "workload": w.name, "seed": *seed,
		"rounds": len(info.roundWall), "round_wall_s": info.roundWall})
	if len(info.notApplicable) > 0 {
		printJSON(map[string]any{"not_applicable": info.notApplicable})
	}
	for _, f := range info.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	printJSON(res)
}

// runInfo is what a measurement reports besides the result line.
type runInfo struct {
	host          map[string]any
	roundWall     []float64 // wall_s of each untraced round
	failures      []string
	notApplicable []string
	tracer        *tracer
}

// measure repeats untraced rounds for the given duration (at least one) and,
// when traced, runs one traced round and the layer microbenchmarks after
// them. Every round's runs are checked and counted.
func measure(w *workload, seed int64, d time.Duration, traced bool) (result, runInfo) {
	res := result{Metrics: make(map[string]metric)}
	var info runInfo
	tally := func(r *round) {
		res.Attempted += len(r.records)
		res.Failed += r.failed()
		for _, rec := range r.records {
			for _, f := range rec.fails {
				info.failures = append(info.failures, rec.key+": "+f)
			}
		}
	}

	if traced {
		// Half the time goes to the untraced baseline of the overhead ratio.
		d /= 2
	}
	var samples []sample
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < d {
		s, r := timedRound(w, seed, len(samples), nil)
		samples = append(samples, s)
		tally(r)
	}
	for _, s := range samples {
		info.roundWall = append(info.roundWall, s.wall.Seconds())
	}
	med := medians(samples)

	if traced {
		// The traced round repeats the last untraced round's inputs, so the
		// overhead ratio compares like with like, both on a warm process.
		last := len(samples) - 1
		tr := newTracer()
		s, r := timedRound(w, seed, last, tr)
		tally(r)
		layers := layerMetrics(w, seed, r, tr)
		layers.set("trace.overhead_ratio", s.wall.Seconds()/samples[last].wall.Seconds())
		samples = append(samples, s)
		layers.set("host.calib_s", medians(samples).calib.Seconds())
		res.Metrics = layers.metrics
		info.notApplicable = layers.notApplicable
		info.tracer = tr
	} else {
		vals := map[string]float64{
			"wall_s":      med.wall.Seconds(),
			"setup_s":     med.setup.Seconds(),
			"cpu_s":       med.cpu.Seconds(),
			"peak_rss_mb": peakRSSMB(),
			"alloc_mb":    med.allocMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	res.Correct = res.Failed == 0
	info.host = hostRecord(med.calib)
	return res, info
}

// timedRound runs one round between a full GC (so no collection owed by an
// earlier round lands in this one) and the host calibration loop.
func timedRound(w *workload, seed int64, idx int, tr *tracer) (sample, *round) {
	runtime.GC()
	s := sample{calib: calibrate()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	r := runRound(w, seed, idx, pins, tr)
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	s.setup = r.setup
	s.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return s, r
}

// medians takes each field's median over the samples.
func medians(samples []sample) sample {
	pick := func(get func(sample) float64) float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = get(s)
		}
		return median(v)
	}
	dur := func(get func(sample) time.Duration) time.Duration {
		return time.Duration(pick(func(s sample) float64 { return float64(get(s)) }))
	}
	return sample{
		wall:    dur(func(s sample) time.Duration { return s.wall }),
		setup:   dur(func(s sample) time.Duration { return s.setup }),
		cpu:     dur(func(s sample) time.Duration { return s.cpu }),
		calib:   dur(func(s sample) time.Duration { return s.calib }),
		allocMB: pick(func(s sample) float64 { return s.allocMB }),
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// calibBuf is the calibration loop's table: 4 MiB, more than a core's
// private caches hold, so the loop also feels contention for the shared
// cache and memory that slows the simulator.
var calibBuf = make([]uint64, 1<<19)

// calibrate times a fixed pure-Go loop of dependent random reads and writes
// into calibBuf. It depends on nothing the program does, so its drift
// between runs is the host's.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ calibBuf[x&(1<<19-1)]) & (1<<19 - 1)
		calibBuf[j] += x
	}
	return time.Since(t0)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostRecord describes the host and build the numbers were measured on.
func hostRecord(calib time.Duration) map[string]any {
	bi := manifest.CollectBuildInfo()
	rev := bi.Revision
	if rev == "" {
		rev = "unknown"
	} else if bi.Dirty {
		rev += "-dirty"
	}
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": bi.GoVersion,
		"revision":   rev,
		"calib_s":    calib.Seconds(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
