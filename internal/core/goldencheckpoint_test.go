package core

import (
	"bytes"
	"flag"
	"os"
	"testing"

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
