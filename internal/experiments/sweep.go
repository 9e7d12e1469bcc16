package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// The sweep runner the Fig. 3/4, recovery and delay drivers share: one job
// grid over (size, max delay, seed, protocol), one worker pool, one config
// builder and one cached run step. A driver supplies only its per-job body
// and folds the outcomes into rows in job order.

// protocols are the two protocols every sweep point compares, indexed by
// job.p (and by the drivers' twin accumulators).
var protocols = [2]core.Protocol{core.FST{}, core.ST{}}

const (
	iFST = 0
	iST  = 1
)

// lockstep is the delay axis of the drivers that attach no adversary: the
// single zero-delay point.
var lockstep = []int{0}

// job is one point of a sweep grid.
type job struct {
	n    int
	seed int64
	// delay is the adversary's maximum message delay in slots (delay sweep
	// only; 0 elsewhere).
	delay int
	// p indexes protocols.
	p int
}

func (j job) proto() core.Protocol { return protocols[j.p] }

// sweepGrid lists a sweep's jobs in the order rows fold them: by size, then
// max delay, then seed, FST before ST. delayFracs are the max-delay points
// as divisors of the firing period (0 stands for the lockstep point).
func sweepGrid(opts Options, delayFracs []int) []job {
	// The sweep does not vary the model period: probe it once from the first
	// size's config.
	period := core.PaperConfig(opts.Sizes[0], opts.BaseSeed).PeriodSlots
	var jobs []job
	for _, n := range opts.Sizes {
		for _, frac := range delayFracs {
			d := 0
			if frac > 0 {
				d = period / frac
			}
			for s := 0; s < opts.Seeds; s++ {
				for p := range protocols {
					jobs = append(jobs, job{n: n, seed: opts.BaseSeed + int64(s), delay: d, p: p})
				}
			}
		}
	}
	return jobs
}

// sweepRun is one job's handle on its sweep: the options, the shared
// geometry memoization, and what the job's runs reported for its progress
// line.
type sweepRun struct {
	job
	opts *Options
	geom *core.GeometryCache
	// runs counts the runs the job made; hits those served from the cache.
	runs, hits int
	// resumed records that a derived run resumed from a prefix checkpoint.
	resumed bool
}

// config builds a run config for the job's deployment from the options.
func (r *sweepRun) config() core.Config {
	cfg := core.PaperConfig(r.n, r.seed)
	cfg.Workers = r.opts.SlotWorkers
	if r.opts.MaxSlots > 0 {
		cfg.MaxSlots = r.opts.MaxSlots
	}
	if r.opts.Configure != nil {
		r.opts.Configure(&cfg)
	}
	cfg.Geometry = r.geom
	return cfg
}

// run simulates the job's protocol under cfg, or serves the result from
// Options.Cache, and reports it to Options.OnResult either way: a cache hit
// is still one logical run of the sweep.
func (r *sweepRun) run(cfg core.Config) (core.Result, error) {
	name := r.proto().Name()
	key, cacheable := "", false
	if r.opts.Cache != nil {
		key, cacheable = CacheKey(cfg, name)
	}
	var res core.Result
	hit := false
	if cacheable {
		res, hit = r.opts.Cache.Get(key)
	}
	if !hit {
		env, err := core.NewEnv(cfg)
		if err != nil {
			return core.Result{}, err
		}
		res = r.proto().Run(env)
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
	return res, nil
}

// runSweep runs body once per job of the sweep's grid on the worker pool,
// emits one progress line per finished job, and returns the grid and the
// jobs' outcomes, both in job order. Drivers fold rows in that order, never
// in completion order: metrics.Summarize sums floats in input order, so a
// completion-order fold would tie row bits to goroutine scheduling.
func runSweep[T any](opts Options, name string, delayFracs []int, body func(*sweepRun) (T, error)) ([]job, []T, error) {
	if len(opts.Sizes) == 0 || opts.Seeds < 1 {
		return nil, nil, fmt.Errorf("experiments: empty sweep")
	}
	// One geometry memoization per sweep: every run of a deployment (the FST
	// and ST member of a job pair, reference and derived runs) shares one
	// world, so the link-geometry pass runs once per distinct (n, seed).
	// Safe because Configure is a pure function of its input (see the
	// Options doc), so PathLoss is uniform per cache key.
	geom := opts.Geometry
	if geom == nil {
		geom = core.NewGeometryCache()
	}
	jobs := sweepGrid(opts, delayFracs)
	prog := newProgressReporter(opts.Progress, name, len(jobs), opts.Cache)
	out := make([]T, len(jobs))
	err := forEach(opts.Workers, len(jobs), func(i int) error {
		r := &sweepRun{job: jobs[i], opts: &opts, geom: geom}
		o, err := body(r)
		if err != nil {
			return err
		}
		out[i] = o
		prog.jobDone(r.n, r.proto().Name(), r.hits == r.runs, r.resumed)
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
