// Package core implements the paper's primary contribution: the proposed
// tree-based distributed firefly proximity/synchronization protocol ("ST")
// and the prior-art baseline it is evaluated against ("FST", the bio-
// inspired D2D discovery protocol of Chao et al. [17]).
//
// Both protocols run on the same substrate — the slotted radio transport of
// internal/rach over the Table I channel — and differ only in what the
// paper says they differ in:
//
//   - FST couples a device to *every* PS it hears (whole-graph, mesh
//     coupling) and performs an O(n) brightness scan per processed pulse.
//   - ST discovers neighbours via RSSI, organizes devices into subtrees by
//     heavy-edge fragment merging over RACH2 (Algorithms 1–2, package ghs),
//     couples only along tree edges within a fragment, and uses the ordered
//     O(log n) brightness structure (Algorithm 3, package firefly).
//
// A Result carries the two quantities the paper's evaluation plots:
// convergence time in slots (Fig. 3) and total control messages (Fig. 4).
package core

import (
	"fmt"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/oscillator"
	"repro/internal/radio"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config holds every knob of a protocol run. The zero value is not runnable;
// start from PaperConfig.
type Config struct {
	// N is the number of devices.
	N int
	// Area is the deployment rectangle. Fig. 3/4 sweeps hold the paper's
	// density (50 devices per 100 m × 100 m) by scaling the area with N;
	// use geo.ScaledSquare.
	Area geo.Rect
	// Seed roots all random streams of the run.
	Seed int64

	// TxPower is the PS transmit power (Table I: 23 dBm).
	TxPower units.DBm
	// Threshold is the PS detection threshold (Table I: −95 dBm).
	Threshold units.DBm
	// ShadowSigmaDB is the log-normal shadowing σ (Table I: 10 dB); it
	// must be ≥ 0.
	ShadowSigmaDB float64
	// Fading is the fast-fading model (Table I: UMi NLOS → Rayleigh).
	Fading radio.Fading
	// PathLoss is the deterministic model (Table I dual-slope by default).
	PathLoss radio.PathLoss

	// PeriodSlots is the firefly period T in 1 ms slots.
	PeriodSlots int
	// Coupling is the PRC configuration (eq. 5).
	Coupling oscillator.Coupling
	// JumpsPerCycle caps PRC jumps between a device's own fires (0 =
	// unlimited). The default 1 matches slotted implementations (MEMFIS)
	// that apply one adjustment per frame from the superimposed pulses.
	JumpsPerCycle int
	// CaptureMarginDB configures same-slot PS collision resolution (see
	// rach.Transport.CaptureMarginDB); it must be ≥ 0.
	CaptureMarginDB float64
	// ClockDriftPPM is the standard deviation of per-device clock-rate
	// offsets in parts per million (0 = ideal clocks, the paper's
	// assumption). Out-of-coverage UEs run on ±10–20 ppm crystals; the
	// drift ablation sweeps far beyond that to find the breakdown point.
	// It must be ≥ 0.
	ClockDriftPPM float64
	// Preambles is the per-codec PRACH preamble pool size (< 2 = one
	// shared sequence, the default; LTE provisions up to 64). See
	// rach.Transport.Preambles.
	Preambles int
	// CorrelatedChannel switches the stochastic channel terms from
	// i.i.d.-per-sample (the light Table I reading) to the physical
	// correlated forms: a static spatially correlated shadowing field
	// (Gudmundson, 13 m decorrelation) plus block fading with a 50-slot
	// coherence time (≈ pedestrian at 2 GHz). Correlation defeats naive
	// RSSI averaging, so this is the stress setting for the ranging layer.
	CorrelatedChannel bool
	// SINRDetection switches PS detection from the flat Table I threshold
	// + capture margin to a physical SINR detector over the LTE PRACH
	// noise floor. The two nearly coincide without interference (the
	// required SINR is Threshold minus the noise floor); under contention
	// the SINR detector is stricter because sub-threshold arrivals still
	// interfere.
	SINRDetection bool
	// SyncWindowSlots is the fire-alignment window defining synchrony; it
	// must be ≥ 0.
	SyncWindowSlots int64
	// StableRounds is how many consecutive aligned rounds declare
	// convergence.
	StableRounds int
	// MaxSlots caps a run; a run that hasn't converged by then reports
	// Converged=false.
	MaxSlots units.Slot

	// Workers sets the run engine's intra-slot parallelism: the
	// oscillator-advance, channel-evaluation and pulse-delivery phases of
	// each stepped slot fan spatial shards out over this many workers. 0 or
	// 1 runs single-threaded; negative uses one worker per CPU. The shard
	// count is derived from N and Workers (see autoShardCount). Results —
	// ActiveSlots included — are bit-identical for every value:
	// parallelism is a throughput knob, not a model parameter, which is why
	// manifests do not carry it. Slot-level workers compose with the
	// run-level sweep pool of internal/experiments (slot-level pays off for
	// few large runs, run-level for many small ones).
	Workers int

	// CheckpointEvery, when positive, arms checkpointing: at every multiple
	// of this slot count the run captures its full state and hands it to
	// OnCheckpoint. Checkpoint boundaries are folded into the engine's
	// next-step horizon exactly like fault and telemetry boundaries, so the
	// knob is trajectory-neutral; only ActiveSlots counts the extra stepped
	// boundary slots.
	CheckpointEvery units.Slot
	// OnCheckpoint receives the state captured at each checkpoint
	// boundary. The state is a deep copy; the hook may serialize it
	// (snapshot.Encode) or keep it. It must not mutate simulation state.
	OnCheckpoint func(st *snapshot.State)
	// Resume, when non-nil, starts the run from a decoded checkpoint
	// instead of from slot 1: the environment is rebuilt from this Config,
	// the saved state is overlaid (stream cursors seek to absolute
	// positions), and the run continues at slots strictly after the
	// snapshot slot — bit-identically to the uninterrupted run, for any
	// Workers value. The snapshot must come from a run of the same protocol
	// with the same N and Seed (Validate checks N and Seed; the protocol's
	// Run panics on a protocol mismatch).
	Resume *snapshot.State
	// Geometry, when non-nil, memoizes the expensive half of environment
	// construction — the transport's link-geometry index — across runs that
	// share a deployment (see GeometryCache). Sweeps set one cache per
	// sweep; results are bit-identical with or without it.
	Geometry *GeometryCache

	// DiscoveryPeriods is how many initial periods ST spends purely on
	// RSSI neighbour discovery before the first merge phase.
	DiscoveryPeriods int
	// MergeEveryPeriods is how many periods ST waits between fragment
	// merge phases (fragments re-synchronize internally in between).
	MergeEveryPeriods int
	// ConnectRetryLimit caps per-message RACH2 retransmissions when the
	// sampled channel drops a merge handshake.
	ConnectRetryLimit int
	// FstRoundSlots is the FST baseline's join cadence: one node attaches
	// to the tree per RACH opportunity, which LTE provisions every few
	// subframes (default 8 slots ≈ PRACH configuration index 12).
	FstRoundSlots int

	// Services is the number of distinct service-interest tags; devices
	// are assigned round-robin. Matching tags drive service discovery.
	Services int

	// MeshCoupling, when set on the ST protocol, disables tree-restricted
	// coupling (ablation B: isolate the topology's effect).
	MeshCoupling bool

	// ProgressTrace, when non-nil, is invoked every ProgressEvery slots
	// during a protocol run (both protocols honour it). Use it to sample
	// time series — discovery coverage, order parameter — as a run
	// unfolds. It must not mutate simulation state.
	ProgressTrace func(slot units.Slot)
	// ProgressEvery is the sampling interval for ProgressTrace
	// (0 disables).
	ProgressEvery units.Slot

	// EventTrace, when non-nil, receives structured events as they
	// happen: every device fire (trace.KindFire, after the slot's cascade
	// settles) and the protocol events — merges, joins, churn, detected
	// convergence. Sinks stream these as
	// schema-versioned JSONL (trace.JSONLWriter) so external tools can
	// replay runs. Like every observability hook it must not mutate
	// simulation state, and the engine guarantees it is RNG-neutral: the
	// hook fires only at slots the run stepped anyway.
	EventTrace func(ev trace.Event)

	// Telemetry, when non-nil, enables the run-telemetry layer
	// (internal/telemetry): per-slot stepped counters and time-series
	// probes — order parameter, phase spread, discovered links, fragment
	// count, cumulative RACH Tx and collisions — sampled at
	// Telemetry.SampleEvery boundaries into a ring-buffered series. A nil
	// Telemetry costs one pointer check per slot (the broadcast hot path
	// stays at its 1 alloc/op steady state); an enabled one never draws
	// from a random stream or reorders work, so results are bit-identical
	// with telemetry on or off (pinned by telemetry_test.go). Like Workers
	// it is an observability knob, not a model parameter, and manifests do
	// not carry it.
	Telemetry *telemetry.Run

	// RunStats, when non-nil, enables engine self-measurement
	// (telemetry.RunStats): monotonic wall time attributed to the slot
	// pipeline's phases, per-shard busy time, stepped and skipped slot
	// counts, and checkpoint capture/encode cost. A nil RunStats costs one
	// pointer check per probe site and the hot path keeps its 1 alloc/op
	// steady state (pinned by TestStepSlotDisabledRunStatsAllocs); an
	// enabled one only reads the monotonic clock — it never draws from a
	// random stream, reorders work or folds a boundary into the engine's
	// horizon, so results are bit-identical with runstats on or off (pinned
	// differentially by runstats_test.go across shard counts, worker counts
	// and fault plans). Like Telemetry it is an observability knob, not a model
	// parameter: manifests do not carry it and result-cache keys refuse it.
	RunStats *telemetry.RunStats

	// Faults, when non-nil, attaches a deterministic fault schedule
	// (internal/faults): node crashes, recoveries, mid-run joins, clock
	// jumps, burst link outages and a per-message loss rate — the only way
	// a run loses devices. Fault actions apply at their scheduled slots
	// regardless of protocol phase, and the self-healing protocols repair
	// around them: a parent-liveness watchdog (patience: three silent
	// periods, widened by Net's delay bound) detects dead parents,
	// orphaned subtrees re-attach through a repair round, and recovered
	// devices re-join — with convergence judged over the currently-live
	// set and the recovery time surfaced in Result. The only randomness is
	// the loss draw, taken from the dedicated "faults" stream in
	// delivery-list order, so faulted runs stay bit-identical across
	// shard layouts and worker counts; a nil or empty plan is bit-identical to
	// no faults layer at all.
	Faults *faults.Plan

	// Net, when non-nil, attaches the bounded-asynchrony message runtime
	// (internal/asyncnet): every resolved pulse delivery is enqueued with
	// a seeded bounded delay and optionally reordered, duplicated or
	// dropped before the protocols see it, and merge-handshake
	// transmissions pay the same per-message transport loss. All draws
	// come from the dedicated "asyncnet" stream in delivery-list order, so
	// adversarial runs stay bit-identical across shard layouts and worker
	// counts — and a degenerate plan (zero delay, no duplication, no loss)
	// is bit-identical to no Net at all (the transport layer is not even
	// constructed). A non-degenerate plan requires a maximum delay below
	// one firing period (bounded asynchrony: a pulse arrives before its
	// sender's next fire) and a bounded jump budget (JumpsPerCycle >= 1,
	// the MEMFIS discipline): with an unlimited budget the extra pulses an
	// adversary keeps in flight compress every oscillator's effective
	// period until the delay/period ratio leaves the convergent regime.
	Net *asyncnet.Plan

	// directGeometry (tests only) disables the transport's link-geometry
	// cache so the run exercises the direct per-call path — the reference
	// side of the cached-vs-direct differential suite.
	directGeometry bool
	// shards (tests only) forces the engine's spatial shard count instead
	// of deriving it from N and Workers, so the differential suites can pin
	// layouts from one shard to one shard per device.
	shards int
	// oracle (tests only) replaces the sharded next-event engine with a
	// reference stepper that advances every oscillator every slot — the
	// executable spec the differential suites compare the engine against.
	oracle stepFunc
	// fstPick (tests only) observes every FST join pick before the join:
	// the edge chosen, whether one was, and the ops the pick charged.
	fstPick func(t *fstTree, u, v int, ok bool, ops uint64)
}

// PaperConfig returns the run configuration of Table I for n devices at the
// paper's density, seeded with seed.
func PaperConfig(n int, seed int64) Config {
	return Config{
		N:    n,
		Area: geo.ScaledSquare(n, 50, 100),
		Seed: seed,

		TxPower:       23,
		Threshold:     -95,
		ShadowSigmaDB: 10,
		Fading:        radio.FadingRayleigh,
		PathLoss:      radio.PaperDualSlope(),

		PeriodSlots:     100,
		Coupling:        oscillator.WeakCoupling(),
		JumpsPerCycle:   0,
		CaptureMarginDB: 6,
		SyncWindowSlots: 0,
		StableRounds:    3,
		MaxSlots:        400000,

		DiscoveryPeriods:  2,
		MergeEveryPeriods: 2,
		ConnectRetryLimit: 5,
		FstRoundSlots:     8,

		Services: 2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("core: N=%d < 1", c.N)
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return fmt.Errorf("core: empty deployment area %+v", c.Area)
	case c.PeriodSlots < 2:
		return fmt.Errorf("core: period %d slots too short", c.PeriodSlots)
	case c.MaxSlots < units.Slot(c.PeriodSlots):
		return fmt.Errorf("core: MaxSlots %d shorter than one period", c.MaxSlots)
	case c.PathLoss == nil:
		return fmt.Errorf("core: nil path-loss model")
	case c.StableRounds < 1:
		return fmt.Errorf("core: StableRounds %d < 1", c.StableRounds)
	case c.DiscoveryPeriods < 1:
		return fmt.Errorf("core: DiscoveryPeriods %d < 1", c.DiscoveryPeriods)
	case c.MergeEveryPeriods < 1:
		return fmt.Errorf("core: MergeEveryPeriods %d < 1", c.MergeEveryPeriods)
	case c.FstRoundSlots < 1:
		return fmt.Errorf("core: FstRoundSlots %d < 1", c.FstRoundSlots)
	case c.Services < 1:
		return fmt.Errorf("core: Services %d < 1", c.Services)
	case !c.Coupling.Converges():
		return fmt.Errorf("core: coupling α=%v β=%v violates the convergence condition",
			c.Coupling.Alpha, c.Coupling.Beta)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("core: CheckpointEvery %d < 0", c.CheckpointEvery)
	case c.ConnectRetryLimit < 0:
		return fmt.Errorf("core: ConnectRetryLimit %d < 0", c.ConnectRetryLimit)
	case c.CaptureMarginDB < 0:
		return fmt.Errorf("core: CaptureMarginDB %v < 0", c.CaptureMarginDB)
	case c.ShadowSigmaDB < 0:
		// The transport's candidate margin is 2σ: a negative σ shrinks the
		// candidate radius below the deterministic coverage radius.
		return fmt.Errorf("core: ShadowSigmaDB %v < 0", c.ShadowSigmaDB)
	case c.SyncWindowSlots < 0:
		return fmt.Errorf("core: SyncWindowSlots %d < 0", c.SyncWindowSlots)
	case c.ClockDriftPPM < 0:
		return fmt.Errorf("core: ClockDriftPPM %v < 0", c.ClockDriftPPM)
	}
	if err := c.Faults.Validate(c.N, int64(c.MaxSlots)); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Net != nil && !c.Net.Degenerate() {
		if c.Net.MaxDelaySlots >= c.PeriodSlots {
			return fmt.Errorf("core: Net max delay %d slots not below the period %d (bounded asynchrony requires delay < T)",
				c.Net.MaxDelaySlots, c.PeriodSlots)
		}
		if c.JumpsPerCycle < 1 {
			return fmt.Errorf("core: Net adversary requires a bounded jump budget (JumpsPerCycle >= 1): an unlimited budget lets in-flight pulse density compress the effective period until the delay/period ratio leaves the convergent regime")
		}
	}
	if r := c.Resume; r != nil {
		if r.N != c.N {
			return fmt.Errorf("core: resume snapshot is for N=%d, config has N=%d", r.N, c.N)
		}
		if r.Seed != c.Seed {
			return fmt.Errorf("core: resume snapshot is for seed %d, config has seed %d", r.Seed, c.Seed)
		}
		if units.Slot(r.Slot) > c.MaxSlots {
			return fmt.Errorf("core: resume snapshot slot %d past MaxSlots %d", r.Slot, c.MaxSlots)
		}
	}
	return nil
}

// netMaxDelay returns the message adversary's delay bound in slots — 0 when
// no adversary is active. The liveness watchdogs widen their patience by
// exactly this much: a pulse sent at slot s arrives by s+netMaxDelay, so a
// device silent for watchSlots+netMaxDelay has provably not transmitted
// within watchSlots, and the no-false-positive argument for the undelayed
// watchdog carries over unchanged.
func (c Config) netMaxDelay() units.Slot {
	if c.Net == nil || c.Net.Degenerate() {
		return 0
	}
	return units.Slot(c.Net.MaxDelaySlots)
}
