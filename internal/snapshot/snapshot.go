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
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

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
//
// v4 stores the per-link tables as columns — the neighbour tables (Peers),
// the message runtime's duplicate filter and GHS's weighted adjacency —
// drops the service-peer lists, which the neighbour tables and the service
// tags imply, and drops the retired Churned flags. Version-3 files are
// rejected like version-2 ones.
const Schema = 4

// envelopeHead opens every encoded snapshot; the canonical envelope is
// envelopeHead + schema + digestKey + 64 hex digits + stateKey + state + "}".
const (
	envelopeHead = `{"schema":`
	digestKey    = `,"digest":"`
	stateKey     = `","state":`
)

// PeerTable is every device's neighbour table as one CSR: device i's rows
// are Off[i] to Off[i+1] of the parallel columns, ascending by peer id. A
// row is what the device heard from one peer: the observation count, the
// dB sum and the latest sample.
type PeerTable struct {
	Off   []int     `json:"off"`
	Peer  []int     `json:"peer"`
	Count []int32   `json:"count"`
	SumDB []float64 `json:"sum_db"`
	Last  []float64 `json:"last"`
}

// DeviceState is one device's oscillator state. Position, service and
// static oscillator parameters are environment setup, rebuilt
// deterministically on restore.
type DeviceState struct {
	Osc oscillator.State `json:"osc"`
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
	Peers       PeerTable           `json:"peers"`
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

// Encode serializes a state into the digest-stamped envelope
// {"schema":4,"digest":"<hex SHA-256 of the state bytes>","state":<state>},
// framed by hand around the one marshal of the state: the bytes are those
// json.Marshal would give for the envelope, without re-scanning the state.
func Encode(st *State) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: nil state")
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot: marshal state: %w", err)
	}
	sum := sha256.Sum256(raw)
	out := make([]byte, 0, len(envelopeHead)+len(digestKey)+len(stateKey)+2*len(sum)+len(raw)+8)
	out = append(out, envelopeHead...)
	out = strconv.AppendInt(out, Schema, 10)
	out = append(out, digestKey...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, stateKey...)
	out = append(out, raw...)
	return append(out, '}'), nil
}

// Decode parses and validates an encoded snapshot. It rejects — with an
// error, never a panic — any framing other than Encode's, version skew,
// digest mismatches (truncation or corruption of the state payload), and
// structurally inconsistent state: wrong array lengths, out-of-range
// indices, malformed columns, a protocol section that does not match the
// Protocol tag. A successfully decoded snapshot is safe to hand to the core
// restore path.
func Decode(data []byte) (*State, error) {
	schema, digest, raw, err := splitEnvelope(data)
	if err != nil {
		return nil, err
	}
	if schema == 2 || schema == 3 {
		return nil, fmt.Errorf("snapshot: schema %d not supported (want %d): version-%d checkpoints hold per-link tables in a layout this version no longer reads; re-capture them", schema, Schema, schema)
	}
	if schema != Schema {
		return nil, fmt.Errorf("snapshot: schema %d not supported (want %d)", schema, Schema)
	}
	sum := sha256.Sum256(raw)
	var computed [2 * sha256.Size]byte
	hex.Encode(computed[:], sum[:])
	if !bytes.Equal(computed[:], digest) {
		return nil, fmt.Errorf("snapshot: state digest mismatch (stamped %q, computed %q)", digest, computed[:])
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("snapshot: parse state: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// splitEnvelope cuts Encode's framing into the schema number, the stamped
// digest and the raw state bytes. The digest pins the state bytes, so a
// reformatted envelope never decoded; anything but the canonical framing is
// rejected here before any of it is interpreted.
func splitEnvelope(data []byte) (schema int, digest, raw []byte, err error) {
	num, rest, found := bytes.Cut(data, []byte(digestKey))
	num, head := bytes.CutPrefix(num, []byte(envelopeHead))
	schema, aerr := strconv.Atoi(string(num))
	if !found || !head || aerr != nil || strconv.Itoa(schema) != string(num) || len(rest) < 2*sha256.Size {
		return 0, nil, nil, fmt.Errorf(`snapshot: parse envelope: not {"schema":<n>,"digest":"<64 hex>",... as Encode writes it`)
	}
	digest, rest = rest[:2*sha256.Size], rest[2*sha256.Size:]
	rest, found = bytes.CutPrefix(rest, []byte(stateKey))
	raw, closed := bytes.CutSuffix(rest, []byte("}"))
	if !found || !closed || len(raw) == 0 {
		return 0, nil, nil, fmt.Errorf("snapshot: parse envelope: the digest is not followed by the state and a closing brace that ends the input")
	}
	return schema, digest, raw, nil
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
	if err := checkCSR("neighbour table", st.Peers.Off, st.N, len(st.Peers.Peer), len(st.Peers.Count), len(st.Peers.SumDB), len(st.Peers.Last)); err != nil {
		return err
	}
	if err := checkIDs("neighbour table peer", st.Peers.Peer, st.N); err != nil {
		return err
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
		a := &net.Accepted
		if len(a.To) != len(a.From) || len(a.Slot) != len(a.From) {
			return fmt.Errorf("snapshot: net filter column lengths (%d,%d,%d) differ", len(a.From), len(a.To), len(a.Slot))
		}
		if err := checkIDs("net filter sender", a.From, st.N); err != nil {
			return err
		}
		if err := checkIDs("net filter receiver", a.To, st.N); err != nil {
			return err
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
	if err := checkCSR("GHS adjacency", g.W.Off, n, len(g.W.Peer), len(g.W.Weight)); err != nil {
		return err
	}
	if err := checkIDs("GHS neighbour", g.W.Peer, n); err != nil {
		return err
	}
	if len(g.TreeAdj) > n {
		return fmt.Errorf("snapshot: GHS tree adjacency length %d exceeds n=%d", len(g.TreeAdj), n)
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

// checkCSR checks the offsets of a CSR over n rows: n+1 of them, starting
// at 0, never decreasing, the last equal to every parallel column's length.
func checkCSR(what string, off []int, n int, cols ...int) error {
	if len(off) != n+1 || off[0] != 0 {
		return fmt.Errorf("snapshot: %s has %d offsets for n=%d, or does not start at 0", what, len(off), n)
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("snapshot: %s offsets decrease at row %d (%d after %d)", what, i, off[i], off[i-1])
		}
	}
	for _, l := range cols {
		if l != off[n] {
			return fmt.Errorf("snapshot: %s column length %d, offsets end at %d", what, l, off[n])
		}
	}
	return nil
}

// checkIDs checks that every id in a column names one of n devices.
func checkIDs(what string, ids []int, n int) error {
	for k, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("snapshot: %s %d (row %d) out of range for n=%d", what, id, k, n)
		}
	}
	return nil
}
