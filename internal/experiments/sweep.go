package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// The sweep runner every protocol-run driver shares: one job grid over
// (size, variant, seed, protocol), one worker pool, one config builder and
// one cached run step. A driver supplies its protocols, its variants and its
// per-job body, and folds the outcomes into rows in job order.

var (
	// fstST are the two protocols the paper compares, indexed by iFST and
	// iST (in the drivers' twin accumulators too).
	fstST = []core.Protocol{core.FST{}, core.ST{}}
	// stOnly drives the ablations that study the proposed protocol alone.
	stOnly = []core.Protocol{core.ST{}}
)

const (
	iFST = 0
	iST  = 1
)

// variant is one point of a driver's variant axis: the label its rows print
// and the edit it applies to every run config of the point. A nil configure
// leaves the config as built.
type variant struct {
	label     any
	configure func(*core.Config)
}

// plain is the variant axis of the drivers that vary nothing: the one
// unedited point.
var plain = []variant{{}}

// job is one point of a sweep grid.
type job struct {
	n    int
	seed int64
	// v indexes the sweep's variants, p its protocols.
	v, p int
}

// sweepGrid lists a sweep's jobs in the order rows fold them: by size, then
// variant, then seed, then protocol.
func sweepGrid(opts Options, variants, protos int) []job {
	var jobs []job
	for _, n := range opts.Sizes {
		for v := 0; v < variants; v++ {
			for s := 0; s < opts.Seeds; s++ {
				for p := 0; p < protos; p++ {
					jobs = append(jobs, job{n: n, seed: opts.BaseSeed + int64(s), v: v, p: p})
				}
			}
		}
	}
	return jobs
}

// sweepRun is one job's handle on its sweep: the job's protocol and variant,
// the options, the shared geometry memoization, and what the job's runs
// reported for its progress line.
type sweepRun struct {
	job
	proto   core.Protocol
	variant variant
	opts    *Options
	geom    *core.GeometryCache
	// runs counts the runs the job made; hits those served from the cache.
	runs, hits int
	// resumed records that a derived run resumed from a prefix checkpoint.
	resumed bool
}

// config builds a run config for the job's deployment from the options and
// the job's variant.
func (r *sweepRun) config() core.Config {
	cfg := core.PaperConfig(r.n, r.seed)
	cfg.Workers = r.opts.SlotWorkers
	if r.opts.MaxSlots > 0 {
		cfg.MaxSlots = r.opts.MaxSlots
	}
	if r.variant.configure != nil {
		r.variant.configure(&cfg)
	}
	cfg.Geometry = r.geom
	return cfg
}

// run simulates the job's protocol under cfg, or serves the result from
// Options.Cache, and reports it to Options.OnResult either way: a cache hit
// is still one logical run of the sweep. It also returns the Env the
// protocol ran on, nil when the result came from the cache.
func (r *sweepRun) run(cfg core.Config) (core.Result, *core.Env, error) {
	name := r.proto.Name()
	key, cacheable := "", false
	if r.opts.Cache != nil {
		key, cacheable = CacheKey(cfg, name)
	}
	var res core.Result
	var env *core.Env
	hit := false
	if cacheable {
		res, hit = r.opts.Cache.Get(key)
	}
	if !hit {
		var err error
		if env, err = core.NewEnv(cfg); err != nil {
			return core.Result{}, nil, err
		}
		res = r.proto.Run(env)
		if cacheable {
			r.opts.Cache.Put(key, res)
		}
	}
	r.runs++
	if hit {
		r.hits++
	}
	if r.opts.OnResult != nil {
		r.opts.OnResult(r.n, name, res)
	}
	return res, env, nil
}

// runSweep runs body once per job of the grid sizes × variants × seeds ×
// protos on the worker pool, emits one progress line per finished job, and
// returns the grid and the jobs' outcomes, both in job order. Drivers fold
// rows in that order, never in completion order: metrics.Summarize sums
// floats in input order, so a completion-order fold would tie row bits to
// goroutine scheduling.
func runSweep[T any](opts Options, name string, protos []core.Protocol, variants []variant, body func(*sweepRun) (T, error)) ([]job, []T, error) {
	if len(opts.Sizes) == 0 || opts.Seeds < 1 {
		return nil, nil, fmt.Errorf("experiments: empty sweep")
	}
	// One geometry memoization per sweep: every run of a deployment (the
	// protocols of a job group, reference and derived runs, the variants
	// that keep the deployment) shares one world, so the link-geometry pass
	// runs once per distinct world. Safe because the variant edits are pure
	// functions of their input, so PathLoss is uniform per cache key.
	geom := opts.Geometry
	if geom == nil {
		geom = core.NewGeometryCache()
	}
	jobs := sweepGrid(opts, len(variants), len(protos))
	prog := newProgressReporter(opts.Progress, name, len(jobs), opts.Cache)
	out := make([]T, len(jobs))
	err := forEach(opts.Workers, len(jobs), func(i int) error {
		j := jobs[i]
		r := &sweepRun{job: j, proto: protos[j.p], variant: variants[j.v], opts: &opts, geom: geom}
		o, err := body(r)
		if err != nil {
			return err
		}
		out[i] = o
		prog.jobDone(r.n, r.proto.Name(), r.hits == r.runs, r.resumed)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return jobs, out, nil
}

// forEach calls fn(i) for every i in [0, count) on at most workers
// goroutines (<= 0: one per CPU). Jobs start in index order and none starts
// once one has failed, so every job below a failing one has run: the error
// returned is that of the lowest-indexed failing job, whatever the
// scheduling.
func forEach(workers, count int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	errs := make([]error, count)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(workers, count); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
