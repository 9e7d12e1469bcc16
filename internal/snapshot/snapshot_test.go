package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/ghs"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/xrand"
)

// testState builds a small but fully populated valid state (BS section —
// the simplest of the three protocol sections).
func testState() *State {
	return &State{
		Protocol: "BS",
		Slot:     120,
		Seed:     42,
		N:        3,
		Streams: []xrand.Cursor{
			{Name: "deployment", Pos: 9},
			{Name: "phases", Pos: 3},
		},
		Devices: []DeviceState{
			{Osc: oscillator.State{Phase: 0.25, SegBase: 0.25, SegStep: 0.01, LastMat: 0.25, LastSlot: 120}},
			{Osc: oscillator.State{Phase: 0.5, SegBase: 0, SegSteps: 50, SegStep: 0.01, LastMat: 0.5, LastSlot: 120}},
			{Osc: oscillator.State{Phase: 0.9, SegBase: 0.9, SegStep: 0.01, LastMat: 0.9, LastSlot: 120}},
		},
		// Device 1 heard device 0 and device 2 heard devices 0 and 1.
		Peers: PeerTable{
			Off:   []int{0, 0, 1, 3},
			Peer:  []int{0, 0, 1},
			Count: []int32{4, 1, 2},
			SumDB: []float64{-312.5, -80, -171.25},
			Last:  []float64{-78.1, -80, -85.5},
		},
		Alive:  []bool{true, true, true},
		Engine: EngineState{ActiveSlots: 120, TotalSlots: 120, LastSlot: 120},
		BS:     &BSState{Result: ResultState{Ops: 360}},
	}
}

// testSTState is testState as an ST run under an asynchrony plan: a merge
// protocol over a three-node path and a duplicate filter of two links.
func testSTState() *State {
	st := testState()
	st.Protocol, st.BS = "ST", nil
	st.ST = &STState{Tree: &ghs.ProtocolState{
		N:  3,
		W:  ghs.Adjacency{Off: []int{0, 1, 3, 4}, Peer: []int{1, 0, 2, 1}, Weight: []float64{0.5, 0.5, 0.25, 0.25}},
		UF: graph.UnionFindState{Parent: []int{0, 1, 2}, Rank: []byte{0, 0, 0}, Count: 3},
		Fragments: []ghs.FragmentState{{Root: 0, Head: 0, Size: 1, Members: []int{0}},
			{Root: 1, Head: 1, Size: 1, Members: []int{1}}, {Root: 2, Head: 2, Size: 1, Members: []int{2}}},
		TreeAdj: [][]int{nil, nil, nil},
	}}
	st.Net = &asyncnet.State{Seq: 9, Accepted: asyncnet.LinkSlots{From: []int{0, 1}, To: []int{1, 2}, Slot: []int64{101, 117}}}
	return st
}

// envelope frames state bytes as Encode does, digest included.
func envelope(schema int, state []byte) []byte {
	sum := sha256.Sum256(state)
	return []byte(fmt.Sprintf(`{"schema":%d,"digest":"%s","state":%s}`, schema, hex.EncodeToString(sum[:]), state))
}

// stateBytes returns the state bytes an encoding carries.
func stateBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var env struct {
		State json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return env.State
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, st := range []*State{testState(), testSTState()} {
		data, err := Encode(st)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !reflect.DeepEqual(st, got) {
			t.Errorf("round trip changed the %s state:\nwant %+v\ngot  %+v", st.Protocol, st, got)
		}
	}
	st := testState()
	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding is deterministic — same state, same bytes — which is what
	// makes cross-engine snapshot comparison byte-exact.
	again, err := Encode(st)
	if err != nil {
		t.Fatalf("second Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Error("two encodings of the same state differ")
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

// TestEncodeFraming pins that the hand-framed envelope is exactly what
// json.Marshal gives for a {schema, digest, state} object around the state.
func TestEncodeFraming(t *testing.T) {
	st := testSTState()
	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	want, err := json.Marshal(&struct {
		Schema int             `json:"schema"`
		Digest string          `json:"digest"`
		State  json.RawMessage `json:"state"`
	}{Schema, hex.EncodeToString(sum[:]), raw})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("Encode framing differs from json.Marshal's:\n got %.120s\nwant %.120s", data, want)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	state := stateBytes(t, data)
	if _, err := Decode(envelope(Schema+1, state)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("future schema not rejected with a schema error: %v", err)
	}
	// Version-2 and version-3 files are refused with a reason, not
	// silently misread.
	for _, old := range []int{2, 3} {
		if _, err := Decode(envelope(old, state)); err == nil || !strings.Contains(err.Error(), "re-capture") {
			t.Errorf("schema-%d file not rejected with a clear error: %v", old, err)
		}
	}
}

// TestDecodeRejectsFraming pins that only Encode's framing decodes: a
// flipped digest, bytes after the closing brace, and an envelope that is
// the same JSON reformatted are all errors.
func TestDecodeRejectsFraming(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("canonical envelope: %v", err)
	}
	i := bytes.Index(data, []byte(`"digest":"`)) + len(`"digest":"`)
	flipped := append([]byte(nil), data...)
	if flipped[i] == '0' {
		flipped[i] = '1'
	} else {
		flipped[i] = '0'
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", "  "); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"flipped digest", flipped, "digest"},
		{"bytes after the closing brace", append(append([]byte(nil), data...), '\n'), "envelope"},
		{"second value after the envelope", append(append([]byte(nil), data...), "{}"...), "digest"},
		{"reformatted with whitespace", indented.Bytes(), "envelope"},
		{"keys reordered", []byte(`{"digest":"","schema":4,"state":{}}`), "envelope"},
		{"schema with a leading zero", bytes.Replace(data, []byte(`"schema":4`), []byte(`"schema":04`), 1), "envelope"},
		{"short digest", bytes.Replace(data, data[i:i+64], data[i:i+63], 1), "envelope"},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode error = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the state payload: the digest must catch it even
	// when the result is still syntactically valid JSON.
	i := bytes.Index(data, []byte(`"slot":120`))
	if i < 0 {
		t.Fatal("fixture lost its slot field")
	}
	bad := append([]byte(nil), data...)
	bad[i+len(`"slot":1`)] = '9'
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("tampered payload not rejected with a digest error: %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestDecodeRejectsInconsistentState(t *testing.T) {
	mutateFrom := func(base func() *State, f func(*State)) []byte {
		st := base()
		f(st)
		data, err := Encode(st)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return data
	}
	mutate := func(f func(*State)) []byte { return mutateFrom(testState, f) }
	mutateST := func(f func(*State)) []byte { return mutateFrom(testSTState, f) }
	cases := []struct {
		name string
		data []byte
	}{
		{"zero n", mutate(func(s *State) { s.N = 0 })},
		{"zero slot", mutate(func(s *State) { s.Slot = 0 })},
		{"device count mismatch", mutate(func(s *State) { s.Devices = s.Devices[:2] })},
		{"alive count mismatch", mutate(func(s *State) { s.Alive = append(s.Alive, true) })},
		{"peer out of range", mutate(func(s *State) { s.Peers.Peer[0] = 7 })},
		{"negative peer", mutate(func(s *State) { s.Peers.Peer[2] = -1 })},
		{"peer offsets missing", mutate(func(s *State) { s.Peers.Off = nil })},
		{"peer offsets short", mutate(func(s *State) { s.Peers.Off = s.Peers.Off[:3] })},
		{"peer offsets not from 0", mutate(func(s *State) { s.Peers.Off[0] = 1 })},
		{"peer offsets decrease", mutate(func(s *State) { s.Peers.Off[1] = 2 })},
		{"peer offsets end before the columns", mutate(func(s *State) { s.Peers.Off[3] = 2 })},
		{"peer offsets end past the columns", mutate(func(s *State) { s.Peers.Off[3] = 4 })},
		{"count column short", mutate(func(s *State) { s.Peers.Count = s.Peers.Count[:2] })},
		{"sum column long", mutate(func(s *State) { s.Peers.SumDB = append(s.Peers.SumDB, -1) })},
		{"last column missing", mutate(func(s *State) { s.Peers.Last = nil })},
		{"unnamed stream", mutate(func(s *State) { s.Streams[0].Name = "" })},
		{"negative fault cursor", mutate(func(s *State) { s.FaultCursor = -1 })},
		{"no protocol section", mutate(func(s *State) { s.BS = nil })},
		{"two protocol sections", mutate(func(s *State) { s.FST = &FSTState{InTree: make([]bool, s.N)} })},
		{"section/tag mismatch", mutate(func(s *State) { s.Protocol = "ST" })},
		{"net filter receiver column short", mutateST(func(s *State) { s.Net.Accepted.To = s.Net.Accepted.To[:1] })},
		{"net filter slot column long", mutateST(func(s *State) { s.Net.Accepted.Slot = append(s.Net.Accepted.Slot, 1) })},
		{"net filter sender out of range", mutateST(func(s *State) { s.Net.Accepted.From[1] = 3 })},
		{"net filter receiver negative", mutateST(func(s *State) { s.Net.Accepted.To[0] = -1 })},
		{"GHS offsets short", mutateST(func(s *State) { s.ST.Tree.W.Off = s.ST.Tree.W.Off[:3] })},
		{"GHS offsets decrease", mutateST(func(s *State) { s.ST.Tree.W.Off[2] = 0 })},
		{"GHS offsets end before the columns", mutateST(func(s *State) { s.ST.Tree.W.Off[3] = 3 })},
		{"GHS weight column short", mutateST(func(s *State) { s.ST.Tree.W.Weight = s.ST.Tree.W.Weight[:3] })},
		{"GHS neighbour out of range", mutateST(func(s *State) { s.ST.Tree.W.Peer[3] = 3 })},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
