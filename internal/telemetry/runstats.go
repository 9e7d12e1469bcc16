// Engine self-measurement (runstats): where did a run's nanoseconds go?
//
// The telemetry layer so far observes the *simulated network* — order
// parameter, links, collisions. RunStats observes the *engines executing
// it*: monotonic wall time attributed to the slot pipeline's phases
// (oscillator advance, broadcast plan/eval/resolve, pulse delivery,
// prediction refresh), per-shard busy time reduced to a load-imbalance
// metric, the stepped and skipped slot counts with the distribution of
// inert slots skipped per step, and checkpoint capture/encode cost. That is the data ROADMAP item 1 needs
// to tune shard policy against measurements, and items 3/5 need to operate
// a simulation service.
//
// The contract mirrors the rest of the package, with one addition:
//
//   - Nil-disabled: a nil *RunStats is the off state; every method is
//     nil-safe, so instrumented engine code threads the pointer
//     unconditionally and the disabled hot path pays one predictable
//     branch per probe site (pinned at <= 1 alloc/slot by
//     TestStepSlotDisabledRunStatsAllocs, and within 5% of the
//     uninstrumented slot by `make bench`).
//   - Deterministic: enabled instrumentation only reads the monotonic
//     clock and writes into this struct. It never reads or writes
//     simulation state, never draws from a random stream, never reorders
//     work and never folds a boundary into the engine's horizon — so
//     results are bit-identical with runstats on or off, across shard
//     counts, worker counts and fault plans (the differential suite in
//     core/runstats_test.go pins it).
//
// Accumulation is deliberately non-atomic: phase and slot counters are
// touched only by the protocol loop's goroutine, and the per-shard arrays
// only by the single worker owning that shard within a phase (distinct
// elements, no sharing). Publish folds the totals into a Vars registry's
// atomics once, so live scrapes see finished runs without the hot path
// paying atomic traffic.
package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// EnginePhase indexes one instrumented phase of a run. PhaseAdvance..
// PhaseRefresh partition the measured slot time (their shares sum to 1);
// PhaseCheckpoint and PhaseProtocol are accounted separately because
// checkpoint capture and the protocol's own rounds happen outside the
// per-slot pipeline.
type EnginePhase int

const (
	// PhaseAdvance is phase A: firing the due shards' members.
	PhaseAdvance EnginePhase = iota
	// PhasePlan is phase B: broadcast planning, channel evaluation and
	// collision resolution (plus fault-plan delivery filtering).
	PhasePlan
	// PhaseDeliver is phase C: pulse delivery and cascade application,
	// including the wave's feed to the protocol (FST's join frontier).
	PhaseDeliver
	// PhaseRefresh is phase D: next-fire prediction refresh and shard
	// minima rescans.
	PhaseRefresh
	// PhaseCheckpoint is the deep-copy state capture plus the OnCheckpoint
	// hook (excluded from slot-time shares; encode cost is itemized
	// separately via AddEncode).
	PhaseCheckpoint
	// PhaseProtocol is the protocol's own round after each stepped slot
	// (FST join picks, ST merge phases), timed once in the shared run loop
	// (excluded from slot-time shares).
	PhaseProtocol

	numPhases = 6
)

// NumEnginePhases is the number of instrumented phases (array sizing).
const NumEnginePhases = numPhases

// String returns the phase's report label.
func (p EnginePhase) String() string {
	switch p {
	case PhaseAdvance:
		return "advance"
	case PhasePlan:
		return "plan"
	case PhaseDeliver:
		return "deliver"
	case PhaseRefresh:
		return "refresh"
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseProtocol:
		return "protocol"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// hist is the non-atomic accumulation twin of Vars' Histogram: same bucket
// layout, single-goroutine writes, merged into the atomic registry by
// Publish.
type hist struct {
	counts [histBuckets]uint64
	sum    float64
	count  uint64
	max    float64
}

func (h *hist) observe(v float64) {
	h.counts[histBucket(v)]++
	h.sum += v
	h.count++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// RunStats accumulates one run's engine self-measurement. A nil *RunStats
// is the disabled state: every method is safe to call and does nothing.
// Like Run it is an observability knob, not a model parameter — manifests
// and cache keys do not carry it, and results are bit-identical with it on
// or off. Not goroutine-safe beyond the per-shard discipline ShardWorked
// documents.
type RunStats struct {
	phaseNanos [numPhases]int64
	phaseCount [numPhases]uint64
	stepped    uint64 // slots the engine stepped
	skipped    uint64 // inert slots the engine's horizon jumped over
	skipSpan   hist   // inert slots skipped before each stepped slot

	shardBusy  []int64  // per-shard busy nanos (phase A advance + phase C deliver)
	shardSteps []uint64 // per-shard worked-phase counts

	ckCaptures uint64 // checkpoint capture+hook invocations
	ckNanos    int64
	encCount   uint64 // snapshot encodes (fed by the checkpoint sink)
	encNanos   int64
	encBytes   uint64
}

// NewRunStats returns an enabled, empty accumulator.
func NewRunStats() *RunStats { return &RunStats{} }

// Enabled reports whether the accumulator is collecting (false for nil).
func (rs *RunStats) Enabled() bool { return rs != nil }

// AddPhase attributes one measured interval to phase p. Called from the
// protocol loop's goroutine only.
func (rs *RunStats) AddPhase(p EnginePhase, d time.Duration) {
	if rs == nil {
		return
	}
	rs.phaseNanos[p] += int64(d)
	rs.phaseCount[p]++
}

// SlotStepped counts one stepped slot, reached by skipping the given number
// of inert slots since the previous step.
func (rs *RunStats) SlotStepped(skipped uint64) {
	if rs == nil {
		return
	}
	rs.stepped++
	rs.skipped += skipped
	rs.skipSpan.observe(float64(skipped))
}

// SlotsSkipped counts inert slots covered without a step after the last one
// (a run capped by its slot bound).
func (rs *RunStats) SlotsSkipped(n uint64) {
	if rs == nil {
		return
	}
	rs.skipped += n
}

// SetShards sizes the per-shard accumulators. Idempotent for a stable
// count; the sharded engine calls it once at construction.
func (rs *RunStats) SetShards(n int) {
	if rs == nil || len(rs.shardBusy) == n {
		return
	}
	rs.shardBusy = make([]int64, n)
	rs.shardSteps = make([]uint64, n)
}

// ShardWorked adds one worked phase (advance or deliver) of d to shard s.
// Concurrency contract: within an engine phase each shard is processed by
// exactly one worker, so concurrent calls always target distinct elements
// — no synchronization is needed or provided.
func (rs *RunStats) ShardWorked(s int, d time.Duration) {
	if rs == nil || s >= len(rs.shardBusy) {
		return
	}
	rs.shardBusy[s] += int64(d)
	rs.shardSteps[s]++
}

// AddCheckpoint attributes one checkpoint capture + hook invocation.
func (rs *RunStats) AddCheckpoint(d time.Duration) {
	if rs == nil {
		return
	}
	rs.ckCaptures++
	rs.ckNanos += int64(d)
	rs.phaseNanos[PhaseCheckpoint] += int64(d)
	rs.phaseCount[PhaseCheckpoint]++
}

// AddEncode records one snapshot serialization (size and wall time) — fed
// by the checkpoint sink that actually encodes, not by the engine.
func (rs *RunStats) AddEncode(bytes int, d time.Duration) {
	if rs == nil {
		return
	}
	rs.encCount++
	rs.encNanos += int64(d)
	rs.encBytes += uint64(bytes)
}

// Publish folds the accumulation into a live registry's atomics (nil-safe
// on both sides). Call it when the run finishes; calling it more than once
// double-counts.
func (rs *RunStats) Publish(v *Vars) {
	if rs == nil || v == nil {
		return
	}
	for p := 0; p < numPhases; p++ {
		v.PhaseNanos[p].Add(uint64(rs.phaseNanos[p]))
	}
	v.SkipSpan.merge(&rs.skipSpan)
	if rs.encCount > 0 {
		v.CheckpointEncode.merge(rs.encCount, float64(rs.encNanos)/1e9)
		v.CheckpointBytes.Add(rs.encBytes)
	}
}

// HistogramStat is the JSON view of one observation distribution. Buckets
// are cumulative (Prometheus-style, le = inclusive upper bound); zero-count
// prefixes are elided.
type HistogramStat struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Mean    float64      `json:"mean"`
	Max     float64      `json:"max"`
	Buckets []BucketStat `json:"buckets,omitempty"`
}

// BucketStat is one cumulative histogram bucket. The bound is a string
// because the overflow bucket's bound is +Inf, which JSON numbers cannot
// carry — same convention as a Prometheus le label ("1", "4096", "+Inf").
type BucketStat struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

func (h *hist) stat() *HistogramStat {
	if h.count == 0 {
		return nil
	}
	st := &HistogramStat{Count: h.count, Sum: h.sum, Mean: h.mean(), Max: h.max}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum == 0 {
			continue
		}
		le := "+Inf"
		if i < len(histBounds) {
			le = strconv.FormatFloat(histBounds[i], 'g', -1, 64)
		}
		st.Buckets = append(st.Buckets, BucketStat{LE: le, Count: cum})
	}
	return st
}

// PhaseStat is one phase's share of the measured slot time.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Nanos int64   `json:"nanos"`
	Count uint64  `json:"count"`
	Share float64 `json:"share"`
}

// ShardStat summarizes the per-shard load distribution.
type ShardStat struct {
	// Shards is the spatial shard count of the run.
	Shards int `json:"shards"`
	// BusyNanos and Steps are per-shard totals, in shard order.
	BusyNanos []int64  `json:"busy_nanos"`
	Steps     []uint64 `json:"steps"`
	// Imbalance is max busy over mean busy across shards (1 = perfectly
	// balanced; the load-imbalance metric shard-policy tuning watches).
	Imbalance float64 `json:"imbalance"`
}

// CheckpointStat itemizes checkpoint cost: the in-engine capture+hook wall
// time and the sink-side encode time and output bytes.
type CheckpointStat struct {
	Captures     uint64 `json:"captures"`
	CaptureNanos int64  `json:"capture_nanos"`
	Encodes      uint64 `json:"encodes"`
	EncodeNanos  int64  `json:"encode_nanos"`
	EncodeBytes  uint64 `json:"encode_bytes"`
}

// CacheStat reports one cache's reuse counters (filled by the caller that
// owns the caches; the engine cannot see them).
type CacheStat struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions,omitempty"`
}

// RunStatsReport is the serializable engine-attribution section of a run
// Report (schema 3).
type RunStatsReport struct {
	// MeasuredNanos is the total attributed slot time (phases A–D; the
	// denominator of every Share).
	MeasuredNanos int64 `json:"measured_nanos"`
	// Phases lists the pipeline phases, largest share first.
	Phases []PhaseStat `json:"phases"`
	// SteppedSlots counts the slots the engine stepped and SkippedSlots
	// the inert slots its horizon jumped over; they sum to the run's span.
	SteppedSlots uint64 `json:"stepped_slots"`
	SkippedSlots uint64 `json:"skipped_slots"`
	// SkipSpan is the distribution of inert slots skipped before each
	// stepped slot (present when a slot was stepped).
	SkipSpan *HistogramStat `json:"skip_span,omitempty"`
	// Shard is present when the sharded engine ran.
	Shard *ShardStat `json:"shard,omitempty"`
	// Checkpoint is present when the run checkpointed.
	Checkpoint *CheckpointStat `json:"checkpoint,omitempty"`
	// GeometryCache and ResultCache are present when the caller attached
	// cache counters (see Report's assembly in cmd/d2dsim).
	GeometryCache *CacheStat `json:"geometry_cache,omitempty"`
	ResultCache   *CacheStat `json:"result_cache,omitempty"`
}

// Report snapshots the accumulation into its serializable form (nil for a
// disabled accumulator).
func (rs *RunStats) Report() *RunStatsReport {
	if rs == nil {
		return nil
	}
	rep := &RunStatsReport{
		SteppedSlots: rs.stepped,
		SkippedSlots: rs.skipped,
		SkipSpan:     rs.skipSpan.stat(),
	}
	for p := PhaseAdvance; p <= PhaseRefresh; p++ {
		rep.MeasuredNanos += rs.phaseNanos[p]
	}
	for p := EnginePhase(0); p < numPhases; p++ {
		if rs.phaseCount[p] == 0 && rs.phaseNanos[p] == 0 {
			continue
		}
		share := 0.0
		if p <= PhaseRefresh && rep.MeasuredNanos > 0 {
			share = float64(rs.phaseNanos[p]) / float64(rep.MeasuredNanos)
		}
		rep.Phases = append(rep.Phases, PhaseStat{
			Phase: p.String(), Nanos: rs.phaseNanos[p], Count: rs.phaseCount[p], Share: share,
		})
	}
	// Largest share first; the phases outside the slot pipeline (share 0)
	// sort last, in phase order.
	for i := 1; i < len(rep.Phases); i++ {
		for j := i; j > 0 && rep.Phases[j].Nanos > rep.Phases[j-1].Nanos &&
			rep.Phases[j].Share > 0 && rep.Phases[j-1].Share > 0; j-- {
			rep.Phases[j], rep.Phases[j-1] = rep.Phases[j-1], rep.Phases[j]
		}
	}
	if len(rs.shardBusy) > 0 {
		st := &ShardStat{
			Shards:    len(rs.shardBusy),
			BusyNanos: append([]int64(nil), rs.shardBusy...),
			Steps:     append([]uint64(nil), rs.shardSteps...),
		}
		var total, max int64
		for _, b := range rs.shardBusy {
			total += b
			if b > max {
				max = b
			}
		}
		if total > 0 {
			st.Imbalance = float64(max) * float64(len(rs.shardBusy)) / float64(total)
		}
		rep.Shard = st
	}
	if rs.ckCaptures > 0 || rs.encCount > 0 {
		rep.Checkpoint = &CheckpointStat{
			Captures: rs.ckCaptures, CaptureNanos: rs.ckNanos,
			Encodes: rs.encCount, EncodeNanos: rs.encNanos, EncodeBytes: rs.encBytes,
		}
	}
	return rep
}

// FormatTable renders the attribution report as the aligned, human-readable
// table `d2dsim -runstats` prints.
func (r *RunStatsReport) FormatTable() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine time attribution: %s measured over %d stepped slots (%d inert slots skipped)\n",
		time.Duration(r.MeasuredNanos), r.SteppedSlots, r.SkippedSlots)
	fmt.Fprintf(&b, "  %-12s %12s %8s %12s\n", "phase", "time", "share", "calls")
	for _, p := range r.Phases {
		share := "-"
		if p.Phase != PhaseCheckpoint.String() && p.Phase != PhaseProtocol.String() {
			share = fmt.Sprintf("%.1f%%", 100*p.Share)
		}
		fmt.Fprintf(&b, "  %-12s %12s %8s %12d\n", p.Phase, time.Duration(p.Nanos), share, p.Count)
	}
	if s := r.Shard; s != nil {
		fmt.Fprintf(&b, "  shards: %d, load imbalance %.2f (max/mean busy)\n", s.Shards, s.Imbalance)
	}
	if d := r.SkipSpan; d != nil {
		fmt.Fprintf(&b, "  skip span: mean %.1f max %.0f inert slots per step\n", d.Mean, d.Max)
	}
	if c := r.Checkpoint; c != nil {
		fmt.Fprintf(&b, "  checkpoints: %d captures %s; %d encodes %s, %d bytes\n",
			c.Captures, time.Duration(c.CaptureNanos), c.Encodes, time.Duration(c.EncodeNanos), c.EncodeBytes)
	}
	if g := r.GeometryCache; g != nil {
		fmt.Fprintf(&b, "  geometry cache: %d hits / %d misses\n", g.Hits, g.Misses)
	}
	if c := r.ResultCache; c != nil {
		fmt.Fprintf(&b, "  result cache: %d hits / %d misses (%d evictions)\n", c.Hits, c.Misses, c.Evictions)
	}
	return b.String()
}
