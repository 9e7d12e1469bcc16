package experiments

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Structured sweep progress. Long sweeps were previously observable only
// through the end-of-run tables (or the /metrics gauges, which carry no
// per-job detail); a service scheduling preemptible sweep jobs (ROADMAP
// items 3/5) needs a live, parseable account of what just finished. When
// Options.Progress is set, the sweep drivers emit one JSONL ProgressEvent
// per completed job — done/total, whether the result came from the cache,
// whether a faulted branch resumed from a shared prefix checkpoint, and
// the cumulative cache counters — serialized through one mutex so
// concurrent workers never interleave bytes within a line.

// ProgressEventSchema versions the progress line layout.
const ProgressEventSchema = 1

// ProgressEvent is one progress line: a job of a sweep finished.
type ProgressEvent struct {
	// Schema is ProgressEventSchema at write time.
	Schema int `json:"schema"`
	// Sweep names the driver: "sweep" (Figs. 3/4), "recovery", "delay",
	// or the d2dsim experiment name of the others ("threeway",
	// "ablation-shadowing", "ablation-topology", "ablation-drift",
	// "ablation-preambles", "ablation-detection", "ablation-channel",
	// "ablation-capture", "services", "cdf", "treequality").
	Sweep string `json:"sweep"`
	// Done counts finished jobs including this one; Total the sweep size.
	Done  int `json:"done"`
	Total int `json:"total"`
	// N and Protocol identify the job.
	N        int    `json:"n"`
	Protocol string `json:"protocol"`
	// Cached reports that every run of the job (the reference and derived
	// runs of the recovery and delay drivers) was served from the result
	// cache instead of simulated.
	Cached bool `json:"cached,omitempty"`
	// PrefixResumed reports a derived run resumed from a shared prefix
	// checkpoint instead of replaying from slot 1 (recovery sweep).
	PrefixResumed bool `json:"prefix_resumed,omitempty"`
	// ElapsedMS is wall time since the sweep started.
	ElapsedMS int64 `json:"elapsed_ms"`
	// CacheHits/CacheMisses are the result cache's cumulative counters at
	// emit time (present only with a cache attached).
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
}

// progressReporter serializes ProgressEvents from concurrent sweep workers
// onto one writer. A nil reporter (no Progress writer configured) is the
// disabled state; every method is nil-safe.
type progressReporter struct {
	mu    sync.Mutex
	w     io.Writer
	sweep string
	total int
	done  int
	start time.Time
	cache *ResultCache
}

func newProgressReporter(w io.Writer, sweep string, total int, cache *ResultCache) *progressReporter {
	if w == nil {
		return nil
	}
	return &progressReporter{w: w, sweep: sweep, total: total, start: time.Now(), cache: cache}
}

// jobDone emits one progress line. Write errors are swallowed: progress is
// observability, never a correctness dependency of the sweep.
func (p *progressReporter) jobDone(n int, protocol string, cached, prefixResumed bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	ev := ProgressEvent{
		Schema:        ProgressEventSchema,
		Sweep:         p.sweep,
		Done:          p.done,
		Total:         p.total,
		N:             n,
		Protocol:      protocol,
		Cached:        cached,
		PrefixResumed: prefixResumed,
		ElapsedMS:     time.Since(p.start).Milliseconds(),
	}
	if p.cache != nil {
		ev.CacheHits, ev.CacheMisses = p.cache.Stats()
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	_, _ = p.w.Write(append(line, '\n'))
}
