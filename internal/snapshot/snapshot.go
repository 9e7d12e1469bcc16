// Package snapshot defines the schema-versioned, digest-stamped checkpoint
// format for simulator runs. A snapshot captures everything mutable that the
// deterministic trajectory depends on — oscillator phases and lazy-segment
// anchors, every named random stream's cursor, discovery tables, protocol
// state (spanning-tree parentage, merge and watchdog timers, the sticky sync
// detector), the fault injector's cursor, transport counters and telemetry
// accumulation — so that a run restored from it continues bit-identically to
// the uninterrupted run, whatever the worker count.
//
// Static configuration is deliberately NOT captured: a restore re-runs the
// deterministic environment setup from (config, seed) and then overlays this
// state, seeking streams to absolute positions. That keeps snapshots small
// and makes the pairing explicit — a snapshot is only meaningful against the
// config that produced it, which Decode cross-checks via N and Seed.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/asyncnet"
	"repro/internal/ghs"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/rach"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Schema is the current snapshot schema version. Bump it whenever the state
// layout changes incompatibly; Decode rejects every other version. The
// committed golden fixture pins the on-disk form of the current version, so
// a layout change fails tests until the schema is bumped deliberately.
//
// v2 added the message-runtime section (State.Net): a run under a bounded-
// asynchrony adversary checkpoints its in-flight delayed messages and the
// receiver-side duplicate-filter table, so a mid-flight resume replays the
// remaining deliveries bit-identically.
//
// v3 follows the move to a single run engine: the adaptive engine's
// decision state is gone, ActiveSlots counts the slots the next-event
// engine stepped, and the engine section carries the absorption echoes
// still armed at the end of the captured slot. Version-2 files are
// rejected: their accounting came from other engines and they lack the echo
// state a resume under an asynchrony plan needs.
const Schema = 3

// Envelope is the on-disk framing: a version, a digest over the raw state
// bytes, and the state itself kept as raw JSON so the digest can be verified
// before anything is interpreted.
type Envelope struct {
	Schema int             `json:"schema"`
	Digest string          `json:"digest"`
	State  json.RawMessage `json:"state"`
}

// PeerStat is one row of a device's discovery table (device.RSSIStat keyed
// by peer), serialized in sorted-peer order.
type PeerStat struct {
	Peer  int     `json:"peer"`
	Count int     `json:"count"`
	SumDB float64 `json:"sum_db"`
	Last  float64 `json:"last"`
}

// DeviceState is one device's mutable state: its oscillator and its
// discovery tables. Position, service and static oscillator parameters are
// environment setup, rebuilt deterministically on restore.
type DeviceState struct {
	Osc          oscillator.State `json:"osc"`
	Peers        []PeerStat       `json:"peers,omitempty"`
	ServicePeers []int            `json:"service_peers,omitempty"`
}

// TransportState is the RACH transport's cumulative accounting.
type TransportState struct {
	Counters   rach.Counters `json:"counters"`
	Collisions uint64        `json:"collisions"`
}

// EchoState is one absorption echo still armed at the end of a slot: the
// device re-announces the adopted epoch at the start of the next stepped
// slot.
type EchoState struct {
	Device int   `json:"device"`
	Epoch  int64 `json:"epoch"`
}

// EngineState is the run engine's slot accounting plus the echoes it
// carries into the next slot. Restoring the accounting makes a resumed
// run's Result byte-identical to the uninterrupted run's.
type EngineState struct {
	ActiveSlots uint64 `json:"active_slots"`
	TotalSlots  uint64 `json:"total_slots"`
	LastSlot    int64  `json:"last_slot"`
	// Echoes is present only under an asynchrony plan, in transmit order.
	Echoes []EchoState `json:"echoes,omitempty"`
}

// ResultState is the portion of a Result accumulated so far mid-run.
type ResultState struct {
	Converged        bool          `json:"converged"`
	ConvergenceSlots int64         `json:"convergence_slots"`
	Counters         rach.Counters `json:"counters"`
	Ops              uint64        `json:"ops"`
	Repairs          int           `json:"repairs,omitempty"`
	Recoveries       int           `json:"recoveries,omitempty"`
	RecoverySlots    int64         `json:"recovery_slots,omitempty"`
}

// STFaultState is the ST protocol's fault-layer bookkeeping, present only
// when the run has a fault plan.
type STFaultState struct {
	LastFired    []int64 `json:"last_fired"`
	PresumedDead []bool  `json:"presumed_dead"`
	Rebooted     []bool  `json:"rebooted"`
	RepairArmed  bool    `json:"repair_armed"`
	AwaitRepair  bool    `json:"await_repair"`
	RepairTries  int     `json:"repair_tries"`
	Synced       bool    `json:"synced"`
	EpisodeOpen  bool    `json:"episode_open"`
	EpisodeStart int64   `json:"episode_start"`
	NextWatch    int64   `json:"next_watch"`
}

// STState is the ST (GHS spanning tree) protocol's resumable state.
type STState struct {
	Result    ResultState              `json:"result"`
	Detector  oscillator.DetectorState `json:"detector"`
	Tree      *ghs.ProtocolState       `json:"tree,omitempty"`
	Repair    *ghs.ProtocolState       `json:"repair,omitempty"`
	Frag      []int                    `json:"frag,omitempty"`
	NextMerge int64                    `json:"next_merge"`
	Churned   bool                     `json:"churned"` // retired: written false, ignored on restore
	Faults    *STFaultState            `json:"faults,omitempty"`
}

// FSTFaultState is the FST protocol's fault-layer bookkeeping, present only
// when the run has a fault plan.
type FSTFaultState struct {
	Parent       []int   `json:"parent"`
	LastFired    []int64 `json:"last_fired"`
	PresumedDead []bool  `json:"presumed_dead"`
	JoinedLive   int     `json:"joined_live"`
	Healing      bool    `json:"healing"`
	Pruned       bool    `json:"pruned"`
	Synced       bool    `json:"synced"`
	EpisodeOpen  bool    `json:"episode_open"`
	EpisodeStart int64   `json:"episode_start"`
	NextWatch    int64   `json:"next_watch"`
}

// FSTState is the FST protocol's resumable state.
type FSTState struct {
	Result    ResultState              `json:"result"`
	Detector  oscillator.DetectorState `json:"detector"`
	InTree    []bool                   `json:"in_tree"`
	TreeEdges []graph.Edge             `json:"tree_edges,omitempty"`
	Joined    int                      `json:"joined"`
	NextRound int64                    `json:"next_round"`
	Churned   bool                     `json:"churned"` // retired: written false, ignored on restore
	Faults    *FSTFaultState           `json:"faults,omitempty"`
}

// BSState is the centralized baseline's resumable state. Only its discovery
// phase is checkpointable — the uplink-report and broadcast phases run in
// one piece after the slot loop, so a resume from a discovery checkpoint
// replays them fresh.
type BSState struct {
	Result ResultState `json:"result"`
}

// State is the full run state at the end of a stepped slot. A resumed run
// continues at slots strictly after Slot.
type State struct {
	Protocol string `json:"protocol"`
	Slot     int64  `json:"slot"`
	Seed     int64  `json:"seed"`
	N        int    `json:"n"`

	Streams     []xrand.Cursor      `json:"streams"`
	Devices     []DeviceState       `json:"devices"`
	Alive       []bool              `json:"alive"`
	Transport   TransportState      `json:"transport"`
	FaultCursor int                 `json:"fault_cursor,omitempty"`
	Telemetry   *telemetry.RunState `json:"telemetry,omitempty"`
	Engine      EngineState         `json:"engine"`
	// Net is the message runtime's queue state — in-flight delayed
	// deliveries and the duplicate-filter table — present only when the run
	// has a non-degenerate asynchrony plan.
	Net *asyncnet.State `json:"net,omitempty"`

	ST  *STState  `json:"st,omitempty"`
	FST *FSTState `json:"fst,omitempty"`
	BS  *BSState  `json:"bs,omitempty"`
}

// Encode serializes a state into the digest-stamped envelope.
func Encode(st *State) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: nil state")
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot: marshal state: %w", err)
	}
	sum := sha256.Sum256(raw)
	env := Envelope{Schema: Schema, Digest: hex.EncodeToString(sum[:]), State: raw}
	return json.Marshal(&env)
}

// Decode parses and validates an encoded snapshot. It rejects — with an
// error, never a panic — version skew, digest mismatches (truncation or
// corruption of the state payload), and structurally inconsistent state:
// wrong array lengths, out-of-range indices, a protocol section that does
// not match the Protocol tag. A successfully decoded snapshot is safe to
// hand to the core restore path.
func Decode(data []byte) (*State, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("snapshot: parse envelope: %w", err)
	}
	if env.Schema == 2 {
		return nil, fmt.Errorf("snapshot: schema 2 not supported (want %d): version-2 checkpoints predate the single run engine and lack its echo state; re-capture them", Schema)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("snapshot: schema %d not supported (want %d)", env.Schema, Schema)
	}
	if len(env.State) == 0 {
		return nil, fmt.Errorf("snapshot: empty state payload")
	}
	sum := sha256.Sum256(env.State)
	if got := hex.EncodeToString(sum[:]); got != env.Digest {
		return nil, fmt.Errorf("snapshot: state digest mismatch (stamped %q, computed %q)", env.Digest, got)
	}
	var st State
	if err := json.Unmarshal(env.State, &st); err != nil {
		return nil, fmt.Errorf("snapshot: parse state: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

func (st *State) validate() error {
	if st.N < 1 {
		return fmt.Errorf("snapshot: n=%d out of range", st.N)
	}
	if st.Slot < 1 {
		return fmt.Errorf("snapshot: slot=%d out of range", st.Slot)
	}
	if len(st.Devices) != st.N {
		return fmt.Errorf("snapshot: %d device states for n=%d", len(st.Devices), st.N)
	}
	if len(st.Alive) != st.N {
		return fmt.Errorf("snapshot: %d alive flags for n=%d", len(st.Alive), st.N)
	}
	for i, d := range st.Devices {
		for _, p := range d.Peers {
			if p.Peer < 0 || p.Peer >= st.N {
				return fmt.Errorf("snapshot: device %d peer %d out of range", i, p.Peer)
			}
		}
		for _, p := range d.ServicePeers {
			if p < 0 || p >= st.N {
				return fmt.Errorf("snapshot: device %d service peer %d out of range", i, p)
			}
		}
	}
	for _, c := range st.Streams {
		if c.Name == "" {
			return fmt.Errorf("snapshot: unnamed stream cursor")
		}
	}
	for i, e := range st.Engine.Echoes {
		if e.Device < 0 || e.Device >= st.N {
			return fmt.Errorf("snapshot: engine echo %d device %d out of range for n=%d", i, e.Device, st.N)
		}
	}
	if st.FaultCursor < 0 {
		return fmt.Errorf("snapshot: fault cursor %d out of range", st.FaultCursor)
	}
	if net := st.Net; net != nil {
		for i, f := range net.InFlight {
			if f.From < 0 || f.From >= st.N || f.To < 0 || f.To >= st.N {
				return fmt.Errorf("snapshot: net flight %d endpoints (%d,%d) out of range for n=%d", i, f.From, f.To, st.N)
			}
			if f.At < 1 {
				return fmt.Errorf("snapshot: net flight %d due slot %d out of range", i, f.At)
			}
			if f.Seq >= net.Seq {
				return fmt.Errorf("snapshot: net flight %d seq %d not below queue seq %d", i, f.Seq, net.Seq)
			}
		}
		for i, a := range net.Accepted {
			if a.From < 0 || a.From >= st.N || a.To < 0 || a.To >= st.N {
				return fmt.Errorf("snapshot: net filter entry %d endpoints (%d,%d) out of range for n=%d", i, a.From, a.To, st.N)
			}
		}
	}
	sections := 0
	if st.ST != nil {
		sections++
		if st.Protocol != "ST" {
			return fmt.Errorf("snapshot: ST section in %q snapshot", st.Protocol)
		}
		if err := st.ST.validate(st.N); err != nil {
			return err
		}
	}
	if st.FST != nil {
		sections++
		if st.Protocol != "FST" {
			return fmt.Errorf("snapshot: FST section in %q snapshot", st.Protocol)
		}
		if err := st.FST.validate(st.N); err != nil {
			return err
		}
	}
	if st.BS != nil {
		sections++
		if st.Protocol != "BS" {
			return fmt.Errorf("snapshot: BS section in %q snapshot", st.Protocol)
		}
	}
	if sections != 1 {
		return fmt.Errorf("snapshot: %d protocol sections for protocol %q (want exactly 1)", sections, st.Protocol)
	}
	return nil
}

func (s *STState) validate(n int) error {
	for _, g := range []*ghs.ProtocolState{s.Tree, s.Repair} {
		if g == nil {
			continue
		}
		if err := validateGHS(g, n); err != nil {
			return err
		}
	}
	if s.Frag != nil && len(s.Frag) != n {
		return fmt.Errorf("snapshot: frag length %d for n=%d", len(s.Frag), n)
	}
	if f := s.Faults; f != nil {
		if len(f.LastFired) != n || len(f.PresumedDead) != n || len(f.Rebooted) != n {
			return fmt.Errorf("snapshot: ST fault state lengths (%d,%d,%d) for n=%d",
				len(f.LastFired), len(f.PresumedDead), len(f.Rebooted), n)
		}
	}
	return nil
}

func (s *FSTState) validate(n int) error {
	if len(s.InTree) != n {
		return fmt.Errorf("snapshot: in_tree length %d for n=%d", len(s.InTree), n)
	}
	if s.Joined < 0 || s.Joined > n {
		return fmt.Errorf("snapshot: joined=%d out of range for n=%d", s.Joined, n)
	}
	for _, e := range s.TreeEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("snapshot: tree edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
	}
	if f := s.Faults; f != nil {
		if len(f.Parent) != n || len(f.LastFired) != n || len(f.PresumedDead) != n {
			return fmt.Errorf("snapshot: FST fault state lengths (%d,%d,%d) for n=%d",
				len(f.Parent), len(f.LastFired), len(f.PresumedDead), n)
		}
		for _, p := range f.Parent {
			if p < -1 || p >= n {
				return fmt.Errorf("snapshot: FST parent %d out of range for n=%d", p, n)
			}
		}
		if f.JoinedLive < 0 || f.JoinedLive > n {
			return fmt.Errorf("snapshot: joined_live=%d out of range for n=%d", f.JoinedLive, n)
		}
	}
	return nil
}

func validateGHS(g *ghs.ProtocolState, n int) error {
	if g.N != n {
		return fmt.Errorf("snapshot: GHS state over %d nodes for n=%d", g.N, n)
	}
	if len(g.UF.Parent) != n || len(g.UF.Rank) != n {
		return fmt.Errorf("snapshot: GHS union-find lengths (%d,%d) for n=%d", len(g.UF.Parent), len(g.UF.Rank), n)
	}
	for _, p := range g.UF.Parent {
		if p < 0 || p >= n {
			return fmt.Errorf("snapshot: GHS union-find parent %d out of range", p)
		}
	}
	if len(g.W) > n || len(g.TreeAdj) > n {
		return fmt.Errorf("snapshot: GHS adjacency lengths (%d,%d) exceed n=%d", len(g.W), len(g.TreeAdj), n)
	}
	for u, row := range g.W {
		for _, nb := range row {
			if nb.Peer < 0 || nb.Peer >= n {
				return fmt.Errorf("snapshot: GHS neighbour %d of %d out of range", nb.Peer, u)
			}
		}
	}
	for u, row := range g.TreeAdj {
		for _, v := range row {
			if v < 0 || v >= n {
				return fmt.Errorf("snapshot: GHS tree neighbour %d of %d out of range", v, u)
			}
		}
	}
	for _, f := range g.Fragments {
		if f.Root < 0 || f.Root >= n || f.Head < 0 || f.Head >= n {
			return fmt.Errorf("snapshot: GHS fragment root=%d head=%d out of range", f.Root, f.Head)
		}
		for _, m := range f.Members {
			if m < 0 || m >= n {
				return fmt.Errorf("snapshot: GHS fragment member %d out of range", m)
			}
		}
	}
	for _, e := range g.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("snapshot: GHS edge (%d,%d) out of range", e.U, e.V)
		}
	}
	return nil
}
