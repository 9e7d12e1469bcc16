package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/rach"
	"repro/internal/snapshot"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed golden checkpoint fixture")

// The committed fixture is a schema-v4 FST checkpoint at slot 450 of the
// golden run (n=40, seed 12345): the hand-framed envelope around a state
// whose neighbour tables are columns. It pins the on-disk form: any change
// to the snapshot layout or encoding breaks TestGoldenCheckpointBytes until
// the schema version is bumped deliberately and the fixture regenerated
// with
//
//	go test ./internal/core/ -run TestGoldenCheckpoint -update
//
// The snapshot package's fuzz corpus seeds from this file too.
const goldenCheckpointPath = "testdata/checkpoint_v4.json"

func goldenCheckpoint(t *testing.T) []byte {
	t.Helper()
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 100000
	cfg.CheckpointEvery = 450
	_, cks := checkpointRun(t, FST{}, cfg)
	if len(cks) == 0 {
		t.Fatal("golden run produced no checkpoints")
	}
	return cks[0].data
}

func TestGoldenCheckpointBytes(t *testing.T) {
	data := goldenCheckpoint(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenCheckpointPath, len(data))
		return
	}
	want, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("the golden run no longer reproduces the committed v%d checkpoint.\n"+
			"If the snapshot layout changed, bump snapshot.Schema, regenerate with -update\n"+
			"and commit the new fixture; if it did not, a determinism regression slipped in.",
			snapshot.Schema)
	}
}

// The committed checkpoint must restore and run to the exact golden finish —
// the same constants TestGoldenResults pins for a fresh run.
func TestGoldenCheckpointRestore(t *testing.T) {
	data, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with -update)", err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	for _, l := range layouts {
		cfg := PaperConfig(40, 12345)
		cfg.MaxSlots = 100000
		cfg.Resume = st
		env := mustEnv(t, l.apply(cfg))
		res := FST{}.Run(env)
		if !res.Converged {
			t.Fatalf("%s: resumed golden run did not converge", l.name)
		}
		if int64(res.ConvergenceSlots) != 772 ||
			res.Counters.Tx[rach.RACH1] != 406 ||
			res.Counters.Tx[rach.RACH2] != 0 ||
			res.Ops != 195009 {
			t.Errorf("%s: resumed golden run drifted:\n got  slots=%d tx1=%d tx2=%d ops=%d\n want slots=772 tx1=406 tx2=0 ops=195009",
				l.name, res.ConvergenceSlots, res.Counters.Tx[rach.RACH1], res.Counters.Tx[rach.RACH2], res.Ops)
		}
	}
}

// TestSTCheckpointBytes pins the encoded bytes of two ST checkpoints of the
// golden deployment under a fault plan, by SHA-256: one mid-merge (several
// fragments, so the merge protocol's tables, fragments and tree adjacency
// are all populated) and one during a self-healing repair round (a second
// merge protocol built over the live devices' links). A change to how the
// merge protocol is built or stored that moves any byte fails here.
func TestSTCheckpointBytes(t *testing.T) {
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 2500
	cfg.CheckpointEvery = 150
	cfg.Faults = &faults.Plan{
		Version:  faults.PlanSchema,
		LossRate: 0.05,
		Actions: []faults.Action{
			{Kind: faults.KindCrash, At: 260, Device: 3},
			{Kind: faults.KindCrash, At: 420, Device: 11},
			{Kind: faults.KindRecover, At: 700, Device: 3},
			{Kind: faults.KindClockJump, At: 900, Device: 5, Delta: 0.4},
		},
		Outages: []faults.Outage{{At: 500, Slots: 120, A: 7, B: -1}},
	}
	want := map[int64]string{
		300:  "5add239f52d0d8830743ba5e16ba97c38a2c6bd46003e388c8e4614d6d540782",
		1050: "daf3ce837b29fe0810f2bc6372ca1be8c78ec2b64d58616c8c6bb7171c1ddc03",
	}
	seen := 0
	cfg.OnCheckpoint = func(st *snapshot.State) {
		sum, ok := want[st.Slot]
		if !ok {
			return
		}
		seen++
		switch s := st.ST; {
		case st.Slot == 300 && (s.Tree == nil || len(s.Tree.Fragments) < 2 || len(s.Tree.Edges) == 0):
			t.Errorf("slot 300: want a tree mid-merge, got %+v", s.Tree)
		case st.Slot == 1050 && s.Repair == nil:
			t.Error("slot 1050: want a repair round in progress")
		}
		data, err := snapshot.Encode(st)
		if err != nil {
			t.Fatalf("encode checkpoint at slot %d: %v", st.Slot, err)
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sum {
			t.Errorf("ST checkpoint at slot %d: sha256 %x, want %s", st.Slot, got, sum)
		}
	}
	ST{}.Run(mustEnv(t, cfg))
	if seen != len(want) {
		t.Fatalf("saw %d of the %d pinned checkpoints", seen, len(want))
	}
}
