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
	// ShadowSigmaDB is the log-normal shadowing σ (Table I: 10 dB).
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
	// ListenPhase opens the coupling window: pulses arriving earlier in
	// the cycle are ignored (RFA/MEMFIS listen near the firing instant).
	ListenPhase float64
	// CaptureMarginDB configures same-slot PS collision resolution (see
	// rach.Transport.CaptureMarginDB). Negative disables collisions.
	CaptureMarginDB float64
	// ClockDriftPPM is the standard deviation of per-device clock-rate
	// offsets in parts per million (0 = ideal clocks, the paper's
	// assumption). Out-of-coverage UEs run on ±10–20 ppm crystals; the
	// drift ablation sweeps far beyond that to find the breakdown point.
	ClockDriftPPM float64
	// Preambles is the per-codec PRACH preamble pool size (< 2 = one
	// shared sequence, the default; LTE provisions up to 64). See
	// rach.Transport.Preambles.
	Preambles int
	// CorrelatedChannel switches the stochastic channel terms from
	// i.i.d.-per-sample (the light Table I reading) to the physical
	// correlated forms: a static spatially correlated shadowing field
	// (Gudmundson, 13 m decorrelation) plus block fading with
	// CoherenceSlots coherence time. Correlation defeats naive RSSI
	// averaging, so this is the stress setting for the ranging layer.
	CorrelatedChannel bool
	// CoherenceSlots is the block-fading coherence time in slots
	// (default 50 ≈ pedestrian at 2 GHz) when CorrelatedChannel is set.
	CoherenceSlots int
	// SINRDetection switches PS detection from the flat Table I threshold
	// + capture margin to a physical SINR detector over the LTE PRACH
	// noise floor. The two nearly coincide without interference (see
	// radio.EffectiveThreshold); under contention the SINR detector is
	// stricter because sub-threshold arrivals still interfere.
	SINRDetection bool
	// SyncWindowSlots is the fire-alignment window defining synchrony.
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
	// PrefixSlot, when positive, arms the single shared-prefix capture used
	// by branching sweeps: the run hands OnPrefix one deep state copy taken
	// at the LAST slot it naturally stepped at or before PrefixSlot. Unlike
	// CheckpointEvery no boundary is folded into the engine's next-step
	// horizon — the capture piggybacks on a slot the engine stepped anyway
	// — so arming it perturbs nothing, not even the ActiveSlots
	// accounting. A run that converges before stepping past PrefixSlot
	// never invokes the hook (callers fall back to from-scratch branches). Honoured by the distributed protocols (FST, ST);
	// Centralized ignores it.
	PrefixSlot units.Slot
	// OnPrefix receives the prefix capture (see PrefixSlot). The state is a
	// deep copy; the hook must not mutate simulation state.
	OnPrefix func(st *snapshot.State)
	// ForkStreams, when non-empty, reroots every random stream into a fresh
	// universe derived from (current seeds, label) immediately after the
	// Resume overlay — the seed-branching primitive: many branches restored
	// from one prefix snapshot diverge stochastically but reproducibly
	// (same label, same branch). Requires Resume. A forked run's own
	// snapshots only restore into a run applying the same fork, so
	// checkpointing past the fork point is unsupported.
	ForkStreams string
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

	// FireTrace, when non-nil, is invoked for every device fire (after
	// the slot's cascade settles) — observability for debugging and the
	// trace tooling. It must not mutate simulation state.
	FireTrace func(slot units.Slot, device int)
	// ProgressTrace, when non-nil, is invoked every ProgressEvery slots
	// during a protocol run (both protocols honour it). Use it to sample
	// time series — discovery coverage, order parameter — as a run
	// unfolds. It must not mutate simulation state.
	ProgressTrace func(slot units.Slot)
	// ProgressEvery is the sampling interval for ProgressTrace
	// (0 disables).
	ProgressEvery units.Slot

	// EventTrace, when non-nil, receives structured protocol events —
	// merges, joins, churn, detected convergence — as they happen (fires
	// keep their dedicated FireTrace hook). Sinks stream these as
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

	// FailAt, when positive, injects post-setup churn: the devices in
	// FailSet power off at that slot (no earlier than the protocol's
	// topology phase completing — failures during tree construction are
	// out of the protocols' scope, as they are in the paper). Convergence
	// is then judged over the survivors.
	FailAt units.Slot
	// FailSet lists the device ids that fail at FailAt.
	FailSet []int

	// Faults, when non-nil, attaches a deterministic fault schedule
	// (internal/faults): node crashes, recoveries, mid-run joins, clock
	// jumps, burst link outages and a per-message loss rate. Unlike the
	// one-shot FailAt/FailSet churn, fault actions apply at their scheduled
	// slots regardless of protocol phase, and the self-healing protocols
	// repair around them: a parent-liveness watchdog detects dead parents,
	// orphaned subtrees re-attach through a repair round, and recovered
	// devices re-join — with convergence judged over the currently-live
	// set and the recovery time surfaced in Result. The only randomness is
	// the loss draw, taken from the dedicated "faults" stream in
	// delivery-list order, so faulted runs stay bit-identical across
	// shard layouts and worker counts; a nil or empty plan is bit-identical to
	// no faults layer at all.
	Faults *faults.Plan
	// WatchdogPeriods is the parent-liveness watchdog patience: a tree
	// child presumes its parent dead after the parent has not fired for
	// this many consecutive periods (0 = the default of 3). Live
	// oscillators fire at least once per two periods, so any value >= 3
	// cannot false-positive on a fault-free run. When a message adversary
	// is configured (Net) the patience additionally widens by the
	// adversary's maximum delay, so a pulse held to its delivery bound
	// still cannot trip the watchdog.
	WatchdogPeriods int

	// Net, when non-nil, attaches the bounded-asynchrony message runtime
	// (internal/asyncnet): every resolved pulse delivery is enqueued with
	// a seeded bounded delay and optionally reordered, duplicated or
	// dropped before the protocols see it, and merge-handshake
	// transmissions pay the same per-message transport loss. All draws
	// come from the dedicated "asyncnet" stream in delivery-list order, so
	// adversarial runs stay bit-identical across shard layouts and worker
	// counts — and a degenerate plan (zero delay, no
	// duplication, no loss) is bit-identical to no Net at all (the
	// transport layer is not even constructed). A non-degenerate plan
	// requires the capture collision model (CaptureMarginDB >= 0, the
	// paper's default), whose receiver-ascending delivery order the
	// transport's drain order extends, a maximum delay below one firing
	// period (bounded asynchrony: a pulse arrives before its sender's
	// next fire), and a bounded jump budget (JumpsPerCycle >= 1, the
	// MEMFIS discipline): with an unlimited budget the extra pulses an
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
		ListenPhase:     0,
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
	case c.PrefixSlot < 0:
		return fmt.Errorf("core: PrefixSlot %d < 0", c.PrefixSlot)
	case c.ForkStreams != "" && c.Resume == nil:
		return fmt.Errorf("core: ForkStreams %q without Resume (stream forking branches off a restored prefix)", c.ForkStreams)
	case c.ConnectRetryLimit < 0:
		return fmt.Errorf("core: ConnectRetryLimit %d < 0", c.ConnectRetryLimit)
	case c.WatchdogPeriods < 0:
		return fmt.Errorf("core: WatchdogPeriods %d < 0", c.WatchdogPeriods)
	case c.FailAt > 0 && c.FailAt > c.MaxSlots:
		return fmt.Errorf("core: FailAt %d past MaxSlots %d", c.FailAt, c.MaxSlots)
	}
	seen := make(map[int]bool, len(c.FailSet))
	for _, id := range c.FailSet {
		if id < 0 || id >= c.N {
			return fmt.Errorf("core: FailSet id %d outside [0,%d)", id, c.N)
		}
		if seen[id] {
			return fmt.Errorf("core: duplicate FailSet id %d", id)
		}
		seen[id] = true
	}
	if err := c.Faults.Validate(c.N, int64(c.MaxSlots)); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Net != nil && !c.Net.Degenerate() {
		if c.CaptureMarginDB < 0 {
			return fmt.Errorf("core: Net adversary requires the capture collision model (CaptureMarginDB >= 0)")
		}
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

// watchdogPeriods resolves the watchdog patience knob to its default.
func (c Config) watchdogPeriods() int {
	if c.WatchdogPeriods > 0 {
		return c.WatchdogPeriods
	}
	return 3
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
