package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rach"
	"repro/internal/units"
)

func TestCentralizedConverges(t *testing.T) {
	env := mustEnv(t, fastConfig(30, 1))
	res := Centralized{}.Run(env)
	if !res.Converged {
		t.Fatalf("BS-assisted run did not converge: %v", res)
	}
	if res.Protocol != "BS" {
		t.Errorf("protocol = %q", res.Protocol)
	}
	// Exactly two downlink broadcasts: report request + tree/timing.
	if res.Counters.Tx[rach.RACH2] != 2 {
		t.Errorf("downlink messages = %d, want 2", res.Counters.Tx[rach.RACH2])
	}
	// At least one uplink report attempt per device plus the beacons.
	if res.Counters.Tx[rach.RACH1] < uint64(30) {
		t.Errorf("uplink+beacon messages = %d, want >= 30", res.Counters.Tx[rach.RACH1])
	}
	if res.Energy.TotalMJ <= 0 {
		t.Error("energy not charged")
	}
}

func TestCentralizedBuildsSpanningTree(t *testing.T) {
	env := mustEnv(t, fastConfig(40, 3))
	res := Centralized{}.Run(env)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(res.TreeEdges) != 39 {
		t.Fatalf("central tree has %d edges, want 39", len(res.TreeEdges))
	}
	if !graph.SpanningTreeOf(40, res.TreeEdges) {
		t.Error("central tree is not a spanning tree")
	}
}

func TestCentralizedDeterministic(t *testing.T) {
	cfg := fastConfig(25, 7)
	a := Centralized{}.Run(mustEnv(t, cfg))
	b := Centralized{}.Run(mustEnv(t, cfg))
	if a.ConvergenceSlots != b.ConvergenceSlots || a.Counters != b.Counters {
		t.Errorf("same-seed BS runs differ:\n%v\n%v", a, b)
	}
}

func TestCentralizedFewerMessagesThanDistributed(t *testing.T) {
	// The point of the yardstick: infrastructure assistance is
	// message-cheap (no merge handshakes, no long beacon tail).
	cfg := fastConfig(100, 2)
	bs := Centralized{}.Run(mustEnv(t, cfg))
	st := ST{}.Run(mustEnv(t, cfg))
	if !bs.Converged || !st.Converged {
		t.Fatal("both should converge")
	}
	if bs.Counters.TotalTx() >= st.Counters.TotalTx() {
		t.Errorf("BS (%d msgs) should beat ST (%d msgs) on message count",
			bs.Counters.TotalTx(), st.Counters.TotalTx())
	}
}

func TestCentralizedContentionScalesWithN(t *testing.T) {
	// Report collection time grows with the cell population: the
	// contention window is sized 4n, so doubling n should lengthen the
	// run noticeably.
	small := Centralized{}.Run(mustEnv(t, fastConfig(50, 4)))
	big := Centralized{}.Run(mustEnv(t, fastConfig(200, 4)))
	if !small.Converged || !big.Converged {
		t.Fatal("both should converge")
	}
	if big.ConvergenceSlots <= small.ConvergenceSlots {
		t.Errorf("n=200 (%d slots) should take longer than n=50 (%d slots)",
			big.ConvergenceSlots, small.ConvergenceSlots)
	}
}

// TestCentralizedUplinkBudgetPins pins the BS report collection when the
// slot budget cuts it short. At n=100 discovery ends at slot 200 and the
// uplink contention windows are 400 slots wide ([201, 601), [601, 1001),
// ...); the last report lands at slot 1361 (seed 1), 1399 (seed 2) and
// 1052 (seed 3). The budgets straddle the window starts and each seed's
// last report, so the pins cover: no window drawn, attempts charged only up
// to the budget, the next window drawn exactly when its start fits, and the
// stop slot. At n=30 seed 8 a retry lands on the first slot of the second
// window (321), so a budget of 321 must draw that window and charge it.
// Tx and TxBytes include the discovery beacons; RACH2 holds the report
// request and, once every report is in, the tree broadcast. The validation
// rounds after the broadcast stop at the budget too: when the last report
// lands within one period of it, no validation beacon is charged. No run
// covers a slot past its budget.
func TestCentralizedUplinkBudgetPins(t *testing.T) {
	pins := []struct {
		n         int
		seed      int64
		maxSlots  units.Slot
		converged bool
		slots     units.Slot
		tx        [2]uint64
		rx        [2]uint64
		txBytes   [2]uint64
	}{
		{100, 1, 200, false, 200, [2]uint64{200, 1}, [2]uint64{7311, 0}, [2]uint64{800, 4}},
		{100, 1, 201, false, 201, [2]uint64{201, 1}, [2]uint64{7312, 0}, [2]uint64{1092, 4}},
		{100, 1, 450, false, 450, [2]uint64{266, 1}, [2]uint64{7350, 0}, [2]uint64{21632, 4}},
		{100, 1, 600, false, 600, [2]uint64{300, 1}, [2]uint64{7380, 0}, [2]uint64{32070, 4}},
		{100, 1, 601, false, 601, [2]uint64{300, 1}, [2]uint64{7380, 0}, [2]uint64{32070, 4}},
		{100, 1, 1000, false, 1000, [2]uint64{331, 1}, [2]uint64{7401, 0}, [2]uint64{41908, 4}},
		{100, 1, 1001, false, 1001, [2]uint64{331, 1}, [2]uint64{7401, 0}, [2]uint64{41908, 4}},
		{100, 1, 1051, false, 1051, [2]uint64{331, 1}, [2]uint64{7401, 0}, [2]uint64{41908, 4}},
		{100, 1, 1052, false, 1052, [2]uint64{331, 1}, [2]uint64{7401, 0}, [2]uint64{41908, 4}},
		{100, 1, 1360, false, 1360, [2]uint64{340, 1}, [2]uint64{7410, 0}, [2]uint64{44668, 4}},
		{100, 1, 1361, false, 1361, [2]uint64{341, 2}, [2]uint64{7411, 0}, [2]uint64{45008, 800}},
		{100, 1, 1398, false, 1398, [2]uint64{341, 2}, [2]uint64{7411, 0}, [2]uint64{45008, 800}},
		{100, 1, 1399, false, 1399, [2]uint64{341, 2}, [2]uint64{7411, 0}, [2]uint64{45008, 800}},
		{100, 1, 100000, true, 1661, [2]uint64{641, 2}, [2]uint64{7599, 0}, [2]uint64{46208, 800}},
		{100, 2, 200, false, 200, [2]uint64{200, 1}, [2]uint64{8419, 0}, [2]uint64{800, 4}},
		{100, 2, 201, false, 201, [2]uint64{201, 1}, [2]uint64{8420, 0}, [2]uint64{1122, 4}},
		{100, 2, 450, false, 450, [2]uint64{266, 1}, [2]uint64{8467, 0}, [2]uint64{23888, 4}},
		{100, 2, 600, false, 600, [2]uint64{300, 1}, [2]uint64{8491, 0}, [2]uint64{36090, 4}},
		{100, 2, 601, false, 601, [2]uint64{300, 1}, [2]uint64{8491, 0}, [2]uint64{36090, 4}},
		{100, 2, 1000, false, 1000, [2]uint64{328, 1}, [2]uint64{8515, 0}, [2]uint64{46066, 4}},
		{100, 2, 1001, false, 1001, [2]uint64{328, 1}, [2]uint64{8515, 0}, [2]uint64{46066, 4}},
		{100, 2, 1051, false, 1051, [2]uint64{328, 1}, [2]uint64{8515, 0}, [2]uint64{46066, 4}},
		{100, 2, 1052, false, 1052, [2]uint64{328, 1}, [2]uint64{8515, 0}, [2]uint64{46066, 4}},
		{100, 2, 1360, false, 1360, [2]uint64{331, 1}, [2]uint64{8518, 0}, [2]uint64{47242, 4}},
		{100, 2, 1361, false, 1361, [2]uint64{331, 1}, [2]uint64{8518, 0}, [2]uint64{47242, 4}},
		{100, 2, 1398, false, 1398, [2]uint64{331, 1}, [2]uint64{8518, 0}, [2]uint64{47242, 4}},
		{100, 2, 1399, false, 1399, [2]uint64{332, 2}, [2]uint64{8519, 0}, [2]uint64{47606, 800}},
		{100, 2, 100000, true, 1699, [2]uint64{632, 2}, [2]uint64{8711, 0}, [2]uint64{48806, 800}},
		{100, 3, 200, false, 200, [2]uint64{200, 1}, [2]uint64{7384, 0}, [2]uint64{800, 4}},
		{100, 3, 201, false, 201, [2]uint64{200, 1}, [2]uint64{7384, 0}, [2]uint64{800, 4}},
		{100, 3, 450, false, 450, [2]uint64{257, 1}, [2]uint64{7431, 0}, [2]uint64{19250, 4}},
		{100, 3, 600, false, 600, [2]uint64{300, 1}, [2]uint64{7458, 0}, [2]uint64{32532, 4}},
		{100, 3, 601, false, 601, [2]uint64{300, 1}, [2]uint64{7458, 0}, [2]uint64{32532, 4}},
		{100, 3, 1000, false, 1000, [2]uint64{326, 1}, [2]uint64{7482, 0}, [2]uint64{40640, 4}},
		{100, 3, 1001, false, 1001, [2]uint64{326, 1}, [2]uint64{7482, 0}, [2]uint64{40640, 4}},
		{100, 3, 1051, false, 1051, [2]uint64{327, 1}, [2]uint64{7483, 0}, [2]uint64{41004, 4}},
		{100, 3, 1052, false, 1052, [2]uint64{328, 2}, [2]uint64{7484, 0}, [2]uint64{41278, 800}},
		{100, 3, 1360, true, 1352, [2]uint64{628, 2}, [2]uint64{7691, 0}, [2]uint64{42478, 800}},
		{100, 3, 1361, true, 1352, [2]uint64{628, 2}, [2]uint64{7691, 0}, [2]uint64{42478, 800}},
		{100, 3, 1398, true, 1352, [2]uint64{628, 2}, [2]uint64{7691, 0}, [2]uint64{42478, 800}},
		{100, 3, 1399, true, 1352, [2]uint64{628, 2}, [2]uint64{7691, 0}, [2]uint64{42478, 800}},
		{100, 3, 100000, true, 1352, [2]uint64{628, 2}, [2]uint64{7691, 0}, [2]uint64{42478, 800}},
		{30, 8, 320, false, 320, [2]uint64{90, 1}, [2]uint64{1211, 0}, [2]uint64{4638, 4}},
		{30, 8, 321, false, 321, [2]uint64{91, 1}, [2]uint64{1212, 0}, [2]uint64{4792, 4}},
	}
	for _, p := range pins {
		cfg := PaperConfig(p.n, p.seed)
		cfg.MaxSlots = p.maxSlots
		res := Centralized{}.Run(mustEnv(t, cfg))
		c := res.Counters
		got := [...]uint64{c.Tx[rach.RACH1], c.Tx[rach.RACH2], c.Rx[rach.RACH1], c.Rx[rach.RACH2], c.TxBytes[rach.RACH1], c.TxBytes[rach.RACH2]}
		want := [...]uint64{p.tx[0], p.tx[1], p.rx[0], p.rx[1], p.txBytes[0], p.txBytes[1]}
		if res.Converged != p.converged || res.ConvergenceSlots != p.slots || got != want {
			t.Errorf("n=%d seed %d MaxSlots %d: converged=%v slots=%d tx/rx/bytes=%v, want %v %d %v",
				p.n, p.seed, p.maxSlots, res.Converged, res.ConvergenceSlots, got, p.converged, p.slots, want)
		}
		// A run cut by the budget covers exactly the budget.
		if res.TotalSlots > uint64(p.maxSlots) || (!res.Converged && res.TotalSlots != uint64(p.maxSlots)) {
			t.Errorf("n=%d seed %d MaxSlots %d: TotalSlots %d, want the budget (at most, once converged)",
				p.n, p.seed, p.maxSlots, res.TotalSlots)
		}
	}
}
