package core

import (
	"reflect"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/snapshot"
)

// TestSnapshotRoundTripCapturedStates pins that Decode(Encode(st)) is
// reflect.DeepEqual to st for states real runs capture: FST under a fault
// plan, ST under the T/4 asynchrony plan with a crash (message-runtime, GHS
// tree and fault sections all present), and BS.
func TestSnapshotRoundTripCapturedStates(t *testing.T) {
	crash := &faults.Plan{Version: faults.PlanSchema, Actions: []faults.Action{
		{Kind: faults.KindCrash, At: 260, Device: 3},
		{Kind: faults.KindCrash, At: 420, Device: 11},
		{Kind: faults.KindRecover, At: 700, Device: 3},
	}}
	fst := PaperConfig(40, 12345)
	fst.MaxSlots = 1200
	fst.Faults = crash
	st := netCfg(40, 12345, 1200, &asyncnet.Plan{
		Version: asyncnet.PlanSchema, MaxDelaySlots: 25, Reorder: true, DupRate: 0.01,
	})
	st.Faults = crash
	bs := PaperConfig(40, 12345)
	bs.MaxSlots = 1200
	cases := []struct {
		proto Protocol
		cfg   Config
		// full reports whether a state carries every section the case is
		// meant to exercise.
		full func(*snapshot.State) bool
	}{
		{FST{}, fst, func(s *snapshot.State) bool { return s.FST.Faults != nil && len(s.Peers.Peer) > 0 }},
		{ST{}, st, func(s *snapshot.State) bool {
			return s.Net != nil && len(s.Net.Accepted.From) > 0 && s.ST.Tree != nil && s.ST.Faults != nil
		}},
		{Centralized{}, bs, func(s *snapshot.State) bool { return s.BS != nil && len(s.Peers.Peer) > 0 }},
	}
	for _, c := range cases {
		cfg := c.cfg
		cfg.CheckpointEvery = 150
		var states []*snapshot.State
		cfg.OnCheckpoint = func(s *snapshot.State) { states = append(states, s) }
		c.proto.Run(mustEnv(t, cfg))
		full := false
		for _, s := range states {
			data, err := snapshot.Encode(s)
			if err != nil {
				t.Fatalf("%s: encode slot %d: %v", c.proto.Name(), s.Slot, err)
			}
			got, err := snapshot.Decode(data)
			if err != nil {
				t.Fatalf("%s: decode slot %d: %v", c.proto.Name(), s.Slot, err)
			}
			if !reflect.DeepEqual(s, got) {
				t.Errorf("%s: slot %d state changed by Encode/Decode", c.proto.Name(), s.Slot)
			}
			full = full || c.full(s)
		}
		if !full {
			t.Errorf("%s: no checkpoint among %d carries every section under test", c.proto.Name(), len(states))
		}
	}
}
