package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// Shared histogram layout for engine observations (inert slots skipped per
// step): power-of-two bounds 1..65536 plus an overflow bucket. One fixed
// layout keeps the non-atomic run accumulator (hist, runstats.go) and the
// atomic live registry (Histogram) mergeable element-by-element.
const histBuckets = 18

var histBounds = [histBuckets - 1]float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536,
}

var histInf = math.Inf(1)

// histBucket maps an observation to its bucket index (last = overflow).
func histBucket(v float64) int {
	for i, b := range histBounds {
		if v <= b {
			return i
		}
	}
	return histBuckets - 1
}

// atomicFloat is a CAS-maintained float64 (Prometheus sums are floats, and
// sync/atomic has no float kind).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) maxOf(v float64) {
	for {
		old := f.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a lock-free observation distribution for the live registry:
// cumulative power-of-two buckets plus sum/count/max, safe for concurrent
// Observe and scrape. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	max    atomicFloat
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.counts[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.max.maxOf(v)
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// merge folds a run-local accumulator in (one atomic pass per finished run,
// so the hot path never touches the shared registry).
func (h *Histogram) merge(src *hist) {
	if src.count == 0 {
		return
	}
	for i := range src.counts {
		if src.counts[i] > 0 {
			h.counts[i].Add(src.counts[i])
		}
	}
	h.count.Add(src.count)
	h.sum.add(src.sum)
	h.max.maxOf(src.max)
}

// writeProm writes the histogram in Prometheus exposition form
// (_bucket{le=...} cumulative, _sum, _count).
func (h *Histogram) writeProm(w io.Writer, name, help string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(histBounds) {
			le = fmt.Sprintf("%g", histBounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum.load(), name, h.count.Load())
	return err
}

// Summary is a lock-free count/sum pair (Prometheus summary without
// quantiles) for costs where totals matter more than shape, e.g. checkpoint
// encode seconds. The zero value is ready to use.
type Summary struct {
	count atomic.Uint64
	sum   atomicFloat
}

// Observe records one observation.
func (s *Summary) Observe(v float64) {
	s.count.Add(1)
	s.sum.add(v)
}

// Count and Sum return the totals recorded so far.
func (s *Summary) Count() uint64 { return s.count.Load() }

// Sum returns the observation total.
func (s *Summary) Sum() float64 { return s.sum.load() }

func (s *Summary) merge(count uint64, sum float64) {
	if count == 0 {
		return
	}
	s.count.Add(count)
	s.sum.add(sum)
}

// writeProm writes the summary in Prometheus exposition form (_sum, _count).
func (s *Summary) writeProm(w io.Writer, name, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n%s_sum %g\n%s_count %d\n",
		name, help, name, name, s.sum.load(), name, s.count.Load())
	return err
}

// Vars is the process-wide live metric registry an HTTP scrape reads while
// sweeps run. All fields are atomics: sweep workers update them
// concurrently, the exposition handlers read them without locks.
type Vars struct {
	// RunsCompleted counts finished protocol runs.
	RunsCompleted atomic.Uint64
	// RunsConverged counts finished runs that reached synchrony.
	RunsConverged atomic.Uint64
	// SlotsStepped counts slots the run engines actually stepped.
	SlotsStepped atomic.Uint64
	// SlotsTotal counts the slot spans runs covered (stepped + skipped).
	SlotsTotal atomic.Uint64
	// Messages counts control-message transmissions across runs.
	Messages atomic.Uint64
	// SweepPoint holds the device count of the sweep point most recently
	// finished (a progress gauge for long sweeps).
	SweepPoint atomic.Int64

	// Engine runstats (filled by RunStats.Publish when Config.RunStats is
	// attached; all zero otherwise).

	// PhaseNanos accumulates wall nanoseconds per engine phase, indexed by
	// EnginePhase.
	PhaseNanos [NumEnginePhases]atomic.Uint64
	// SkipSpan is the distribution of inert slots the engine skipped
	// before each stepped slot.
	SkipSpan Histogram
	// CheckpointEncode totals snapshot serialization cost in seconds;
	// CheckpointBytes the encoded output size.
	CheckpointEncode Summary
	CheckpointBytes  atomic.Uint64

	// Cache reuse counters (stored from the caches' own cumulative stats,
	// so re-storing is idempotent).
	GeometryCacheHits    atomic.Uint64
	GeometryCacheMisses  atomic.Uint64
	ResultCacheHits      atomic.Uint64
	ResultCacheMisses    atomic.Uint64
	ResultCacheEvictions atomic.Uint64

	// Message-runtime adversary counters, accumulated per finished run
	// (AddNetStats); all zero when no run carried an asynchrony plan.
	NetDelayed    atomic.Uint64
	NetDuplicated atomic.Uint64
	NetLost       atomic.Uint64
	NetRejected   atomic.Uint64
	// NetPeakInFlight is the high-water mark of simultaneously in-flight
	// messages across runs (a gauge, maintained as a CAS max).
	NetPeakInFlight atomic.Int64
}

// SetGeometryCacheStats stores a GeometryCache's cumulative hit/miss
// counters (Store, not Add: the cache already accumulates).
func (v *Vars) SetGeometryCacheStats(hits, misses uint64) {
	if v == nil {
		return
	}
	v.GeometryCacheHits.Store(hits)
	v.GeometryCacheMisses.Store(misses)
}

// SetResultCacheStats stores a ResultCache's cumulative counters.
func (v *Vars) SetResultCacheStats(hits, misses, evictions uint64) {
	if v == nil {
		return
	}
	v.ResultCacheHits.Store(hits)
	v.ResultCacheMisses.Store(misses)
	v.ResultCacheEvictions.Store(evictions)
}

// AddNetStats folds one finished run's message-runtime counters into the
// live registry (counters add, the in-flight peak folds as a max). Safe to
// call from concurrent sweep workers; a nil receiver is a no-op.
func (v *Vars) AddNetStats(delayed, duplicated, lost, rejected uint64, peak int) {
	if v == nil {
		return
	}
	v.NetDelayed.Add(delayed)
	v.NetDuplicated.Add(duplicated)
	v.NetLost.Add(lost)
	v.NetRejected.Add(rejected)
	for {
		old := v.NetPeakInFlight.Load()
		if int64(peak) <= old || v.NetPeakInFlight.CompareAndSwap(old, int64(peak)) {
			return
		}
	}
}

// RecordResult folds one finished run's headline numbers into the live
// registry. Safe to call from concurrent sweep workers.
func (v *Vars) RecordResult(n int, converged bool, activeSlots, totalSlots, messages uint64) {
	if v == nil {
		return
	}
	v.RunsCompleted.Add(1)
	if converged {
		v.RunsConverged.Add(1)
	}
	v.SlotsStepped.Add(activeSlots)
	v.SlotsTotal.Add(totalSlots)
	v.Messages.Add(messages)
	v.SweepPoint.Store(int64(n))
}

// ActiveSlotRatio returns stepped/total over everything recorded so far
// (1.0 when nothing ran yet).
func (v *Vars) ActiveSlotRatio() float64 {
	total := v.SlotsTotal.Load()
	if total == 0 {
		return 1
	}
	return float64(v.SlotsStepped.Load()) / float64(total)
}

// Snapshot returns the registry as a plain map — the expvar view.
func (v *Vars) Snapshot() map[string]any {
	snap := map[string]any{
		"runs_completed":    v.RunsCompleted.Load(),
		"runs_converged":    v.RunsConverged.Load(),
		"slots_stepped":     v.SlotsStepped.Load(),
		"slots_total":       v.SlotsTotal.Load(),
		"active_slot_ratio": v.ActiveSlotRatio(),
		"messages":          v.Messages.Load(),
		"sweep_point":       v.SweepPoint.Load(),
	}
	phases := map[string]uint64{}
	for p := EnginePhase(0); p < NumEnginePhases; p++ {
		if n := v.PhaseNanos[p].Load(); n > 0 {
			phases[p.String()] = n
		}
	}
	if len(phases) > 0 {
		snap["phase_nanos"] = phases
	}
	if n := v.SkipSpan.Count(); n > 0 {
		snap["skip_span_observations"] = n
	}
	if n := v.CheckpointEncode.Count(); n > 0 {
		snap["checkpoint_encodes"] = n
		snap["checkpoint_encode_seconds"] = v.CheckpointEncode.Sum()
		snap["checkpoint_bytes"] = v.CheckpointBytes.Load()
	}
	if h, m := v.ResultCacheHits.Load(), v.ResultCacheMisses.Load(); h+m > 0 {
		snap["result_cache_hits"] = h
		snap["result_cache_misses"] = m
		snap["result_cache_evictions"] = v.ResultCacheEvictions.Load()
	}
	if h, m := v.GeometryCacheHits.Load(), v.GeometryCacheMisses.Load(); h+m > 0 {
		snap["geometry_cache_hits"] = h
		snap["geometry_cache_misses"] = m
	}
	if d := v.NetDelayed.Load(); d+v.NetDuplicated.Load()+v.NetLost.Load()+v.NetRejected.Load() > 0 {
		snap["net_delayed"] = d
		snap["net_duplicated"] = v.NetDuplicated.Load()
		snap["net_lost"] = v.NetLost.Load()
		snap["net_rejected"] = v.NetRejected.Load()
		snap["net_peak_in_flight"] = v.NetPeakInFlight.Load()
	}
	return snap
}

// WriteMetrics writes the registry in Prometheus text exposition format.
// The metric names are part of the documented interface (DESIGN.md §7):
//
//	d2dsim_runs_completed_total
//	d2dsim_runs_converged_total
//	d2dsim_slots_stepped_total
//	d2dsim_slots_total
//	d2dsim_active_slot_ratio
//	d2dsim_messages_total
//	d2dsim_sweep_point
//
// plus the engine-runstats families (DESIGN.md §13):
//
//	d2dsim_engine_phase_seconds_total{phase=...}
//	d2dsim_engine_skip_span (histogram)
//	d2dsim_checkpoint_encode_seconds (summary)
//	d2dsim_checkpoint_encode_bytes_total
//	d2dsim_geometry_cache_{hits,misses}_total
//	d2dsim_result_cache_{hits,misses,evictions}_total
//
// plus the message-runtime adversary family (DESIGN.md §14):
//
//	d2dsim_net_{delayed,duplicated,lost,rejected}_total
//	d2dsim_net_peak_in_flight
func (v *Vars) WriteMetrics(w io.Writer) error {
	type metric struct {
		name, help, typ string
		value           any
	}
	metrics := []metric{
		{"d2dsim_runs_completed_total", "Protocol runs completed.", "counter", v.RunsCompleted.Load()},
		{"d2dsim_runs_converged_total", "Completed runs that reached synchrony.", "counter", v.RunsConverged.Load()},
		{"d2dsim_slots_stepped_total", "Slots the run engines actually stepped.", "counter", v.SlotsStepped.Load()},
		{"d2dsim_slots_total", "Slot spans covered by runs (stepped + skipped).", "counter", v.SlotsTotal.Load()},
		{"d2dsim_active_slot_ratio", "Stepped/total slot ratio across runs.", "gauge", v.ActiveSlotRatio()},
		{"d2dsim_messages_total", "Control-message transmissions across runs.", "counter", v.Messages.Load()},
		{"d2dsim_sweep_point", "Device count of the sweep point last finished.", "gauge", v.SweepPoint.Load()},
	}
	for _, m := range metrics {
		var err error
		switch val := m.value.(type) {
		case float64:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", m.name, m.help, m.name, m.typ, m.name, val)
		default:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, val)
		}
		if err != nil {
			return err
		}
	}

	// Labeled families share one HELP/TYPE header across their series.
	if _, err := fmt.Fprintf(w, "# HELP %[1]s Engine wall time per pipeline phase.\n# TYPE %[1]s counter\n",
		"d2dsim_engine_phase_seconds_total"); err != nil {
		return err
	}
	for p := EnginePhase(0); p < NumEnginePhases; p++ {
		if _, err := fmt.Fprintf(w, "d2dsim_engine_phase_seconds_total{phase=%q} %g\n",
			p.String(), float64(v.PhaseNanos[p].Load())/1e9); err != nil {
			return err
		}
	}
	if err := v.SkipSpan.writeProm(w, "d2dsim_engine_skip_span",
		"Inert slots the engine skipped before each stepped slot."); err != nil {
		return err
	}
	if err := v.CheckpointEncode.writeProm(w, "d2dsim_checkpoint_encode_seconds",
		"Snapshot serialization wall time."); err != nil {
		return err
	}
	tail := []metric{
		{"d2dsim_checkpoint_encode_bytes_total", "Encoded snapshot output bytes.", "counter", v.CheckpointBytes.Load()},
		{"d2dsim_geometry_cache_hits_total", "Geometry cache link-index hits.", "counter", v.GeometryCacheHits.Load()},
		{"d2dsim_geometry_cache_misses_total", "Geometry cache link-index misses.", "counter", v.GeometryCacheMisses.Load()},
		{"d2dsim_result_cache_hits_total", "Result cache hits.", "counter", v.ResultCacheHits.Load()},
		{"d2dsim_result_cache_misses_total", "Result cache misses.", "counter", v.ResultCacheMisses.Load()},
		{"d2dsim_result_cache_evictions_total", "Result cache LRU evictions.", "counter", v.ResultCacheEvictions.Load()},
		{"d2dsim_net_delayed_total", "Messages the asynchrony adversary delayed.", "counter", v.NetDelayed.Load()},
		{"d2dsim_net_duplicated_total", "Adversary-injected duplicate messages.", "counter", v.NetDuplicated.Load()},
		{"d2dsim_net_lost_total", "Messages dropped by the adversary loss draw.", "counter", v.NetLost.Load()},
		{"d2dsim_net_rejected_total", "Deliveries discarded by the duplicate/stale filter.", "counter", v.NetRejected.Load()},
		{"d2dsim_net_peak_in_flight", "High-water mark of in-flight delayed messages.", "gauge", v.NetPeakInFlight.Load()},
	}
	for _, m := range tail {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.typ, m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}

// publishMu guards the process-global expvar publication (expvar panics on
// duplicate names, and tests build more than one exposition mux).
var publishMu sync.Mutex

// NewMux builds the exposition handler set over v:
//
//	/metrics      — Prometheus text format (WriteMetrics)
//	/debug/vars   — expvar JSON (v published under "d2dsim")
//	/debug/pprof/ — the standard pprof index, profile, trace handlers
func NewMux(v *Vars) *http.ServeMux {
	publishMu.Lock()
	if expvar.Get("d2dsim") == nil {
		expvar.Publish("d2dsim", expvar.Func(func() any { return v.Snapshot() }))
	}
	publishMu.Unlock()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = v.WriteMetrics(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the exposition server on addr (":0" picks a free port) and
// returns the server plus the bound address. The caller owns shutdown via
// srv.Close; serving errors after Close are swallowed.
func Serve(addr string, v *Vars) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: NewMux(v)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
