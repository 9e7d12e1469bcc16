package experiments

import (
	"strings"
	"testing"
)

func TestRunRecoverySweepShape(t *testing.T) {
	opts := smallOptions()
	opts.Sizes = []int{30}
	rows, err := RunRecoverySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.N != 30 {
		t.Errorf("row size %d, want 30", r.N)
	}
	if r.AttemptedFST != 2 || r.AttemptedST != 2 {
		t.Errorf("attempted %d/%d, want 2/2 (reference runs should converge)",
			r.AttemptedFST, r.AttemptedST)
	}
	if r.HealedFST != r.AttemptedFST || r.HealedST != r.AttemptedST {
		t.Errorf("survivors did not heal: FST %d/%d, ST %d/%d",
			r.HealedFST, r.AttemptedFST, r.HealedST, r.AttemptedST)
	}
	if r.RecTimeFST.Mean <= 0 || r.RecTimeST.Mean <= 0 {
		t.Errorf("zero recovery time: FST %v, ST %v", r.RecTimeFST.Mean, r.RecTimeST.Mean)
	}
	if r.RepairsFST.Mean < 1 || r.RepairsST.Mean < 1 {
		t.Errorf("no repair rounds: FST %v, ST %v", r.RepairsFST.Mean, r.RepairsST.Mean)
	}
}

func TestRecoveryTable(t *testing.T) {
	opts := smallOptions()
	opts.Sizes = []int{30}
	rows, err := RunRecoverySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RecoveryTable(rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "crash wave") || !strings.Contains(out, "30") {
		t.Errorf("recovery table wrong:\n%s", out)
	}
	if !strings.Contains(out, "2/2") {
		t.Errorf("healed column missing:\n%s", out)
	}
}
