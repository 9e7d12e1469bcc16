package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
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

// recoveryRun is one run a recovery sweep reported through OnResult.
type recoveryRun struct {
	n     int
	proto string
	res   core.Result
}

// TestRunRecoverySweepPrefixIdentical pins the recovery driver's prefix-reuse
// contract, the simulator's one resume of a fault run from a fault-free
// snapshot: with the checkpoint ring on (an explicit and the automatic
// cadence) every run the sweep makes — reference and derived, FST and ST —
// returns the same Result as with the ring off, except the engine's
// ActiveSlots/TotalSlots accounting, and the rows are identical. The
// progress stream must show that derived runs of both protocols really
// resumed.
func TestRunRecoverySweepPrefixIdentical(t *testing.T) {
	sweep := func(cadence units.Slot) ([]RecoveryRow, []recoveryRun, []ProgressEvent) {
		var buf syncBuffer
		var runs []recoveryRun
		opts := smallOptions()
		opts.Sizes = []int{30, 60}
		opts.Workers = 1 // OnResult in job order, unsynchronized
		opts.PrefixSlots = cadence
		opts.Progress = &buf
		opts.OnResult = func(n int, proto string, res core.Result) {
			res.ActiveSlots, res.TotalSlots = 0, 0
			runs = append(runs, recoveryRun{n, proto, res})
		}
		rows, err := RunRecoverySweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		return rows, runs, decodeProgress(t, buf.String())
	}
	plainRows, plainRuns, plainEvs := sweep(0)
	for _, ev := range plainEvs {
		if ev.PrefixResumed {
			t.Fatalf("ring off: n=%d %s reported a prefix resume", ev.N, ev.Protocol)
		}
	}
	for _, cadence := range []units.Slot{300, -1} { // explicit and auto
		rows, runs, evs := sweep(cadence)
		if !reflect.DeepEqual(plainRows, rows) {
			t.Errorf("PrefixSlots=%d: rows differ:\n%+v\n%+v", cadence, plainRows, rows)
		}
		if len(runs) != len(plainRuns) {
			t.Fatalf("PrefixSlots=%d: %d runs, want %d", cadence, len(runs), len(plainRuns))
		}
		for i := range runs {
			if !reflect.DeepEqual(runs[i], plainRuns[i]) {
				t.Errorf("PrefixSlots=%d: run %d (n=%d %s) differs:\n%+v\n%+v",
					cadence, i, runs[i].n, runs[i].proto, plainRuns[i].res, runs[i].res)
			}
		}
		resumed := map[string]int{}
		for _, ev := range evs {
			if ev.PrefixResumed {
				resumed[ev.Protocol]++
			}
		}
		for _, proto := range []string{"FST", "ST"} {
			if resumed[proto] == 0 {
				t.Errorf("PrefixSlots=%d: no %s derived run resumed from a checkpoint", cadence, proto)
			}
		}
	}
}
