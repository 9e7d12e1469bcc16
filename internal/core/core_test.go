package core

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/rach"
)

// fastConfig returns a small, quick configuration for unit tests.
func fastConfig(n int, seed int64) Config {
	cfg := PaperConfig(n, seed)
	cfg.MaxSlots = 60000
	return cfg
}

func mustEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestPaperConfigMatchesTableI(t *testing.T) {
	cfg := PaperConfig(50, 1)
	if cfg.TxPower != 23 {
		t.Errorf("device power = %v, want 23 dBm", cfg.TxPower)
	}
	if cfg.Threshold != -95 {
		t.Errorf("threshold = %v, want -95 dBm", cfg.Threshold)
	}
	if cfg.ShadowSigmaDB != 10 {
		t.Errorf("shadowing sigma = %v, want 10 dB", cfg.ShadowSigmaDB)
	}
	if cfg.Area.Width() != 100 || cfg.Area.Height() != 100 {
		t.Errorf("area = %+v, want 100x100 m", cfg.Area)
	}
	if cfg.N != 50 {
		t.Errorf("N = %d, want 50 (Table I density)", cfg.N)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
}

func TestPaperConfigScalesAreaWithN(t *testing.T) {
	small := PaperConfig(50, 1)
	big := PaperConfig(200, 1)
	dSmall := float64(small.N) / small.Area.Area()
	dBig := float64(big.N) / big.Area.Area()
	if diff := dSmall - dBig; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("density changed with N: %v vs %v", dSmall, dBig)
	}
}

func TestConfigValidation(t *testing.T) {
	base := PaperConfig(10, 1)
	mutations := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.Area = geo.Rect{} },
		func(c *Config) { c.PeriodSlots = 1 },
		func(c *Config) { c.MaxSlots = 10 },
		func(c *Config) { c.PathLoss = nil },
		func(c *Config) { c.StableRounds = 0 },
		func(c *Config) { c.DiscoveryPeriods = 0 },
		func(c *Config) { c.MergeEveryPeriods = 0 },
		func(c *Config) { c.FstRoundSlots = 0 },
		func(c *Config) { c.Services = 0 },
		func(c *Config) { c.Coupling = oscillator.Coupling{Alpha: 0.9, Beta: 0.1} },
		func(c *Config) { c.ConnectRetryLimit = -1 },
		func(c *Config) { c.CaptureMarginDB = -1 },
		func(c *Config) { c.ShadowSigmaDB = -5 },
		func(c *Config) { c.SyncWindowSlots = -1 },
		func(c *Config) { c.ClockDriftPPM = -20 },
	}
	for i, m := range mutations {
		cfg := base
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
		if _, err := NewEnv(cfg); err == nil {
			t.Errorf("mutation %d: NewEnv accepted invalid config", i)
		}
	}
}

func TestNewEnvDeterministic(t *testing.T) {
	cfg := fastConfig(20, 7)
	a := mustEnv(t, cfg)
	b := mustEnv(t, cfg)
	for i := range a.Devices {
		if a.Devices[i].Pos != b.Devices[i].Pos {
			t.Fatalf("device %d positions differ", i)
		}
		if a.Devices[i].Osc.Phase != b.Devices[i].Osc.Phase {
			t.Fatalf("device %d phases differ", i)
		}
	}
}

func TestEnvDevicesInsideArea(t *testing.T) {
	cfg := fastConfig(40, 3)
	env := mustEnv(t, cfg)
	for _, d := range env.Devices {
		if !cfg.Area.Contains(d.Pos) {
			t.Fatalf("device %d at %v outside area", d.ID, d.Pos)
		}
	}
	if len(env.Phases()) != 40 {
		t.Error("Phases length mismatch")
	}
}

func TestEnvServiceAssignmentRoundRobin(t *testing.T) {
	cfg := fastConfig(10, 1)
	cfg.Services = 3
	env := mustEnv(t, cfg)
	for i, d := range env.Devices {
		if int(d.Service) != i%3 {
			t.Fatalf("device %d service = %d, want %d", i, d.Service, i%3)
		}
	}
}

func TestReferenceGraphConnectedAtPaperDensity(t *testing.T) {
	env := mustEnv(t, fastConfig(50, 11))
	g := env.ReferenceGraph()
	if !g.IsConnected() {
		t.Error("50 devices in 100x100 m should form a connected graph at -95 dBm")
	}
	// Edge weights are mean RSSI: all above threshold.
	for _, e := range g.Edges() {
		if e.Weight < -95 {
			t.Errorf("edge %v weaker than threshold", e)
		}
	}
}

func TestFSTConverges(t *testing.T) {
	env := mustEnv(t, fastConfig(30, 1))
	res := FST{}.Run(env)
	if !res.Converged {
		t.Fatalf("FST did not converge: %v", res)
	}
	if res.ConvergenceSlots <= 0 || res.ConvergenceSlots >= env.Cfg.MaxSlots {
		t.Errorf("convergence slot %d out of range", res.ConvergenceSlots)
	}
	if res.Counters.TotalTx() == 0 {
		t.Error("no messages counted")
	}
	if res.Counters.Tx[rach.RACH2] != 0 {
		t.Error("FST must not use RACH2 (single codec)")
	}
	if res.Protocol != "FST" || res.N != 30 {
		t.Errorf("result metadata wrong: %+v", res)
	}
}

func TestSTConverges(t *testing.T) {
	env := mustEnv(t, fastConfig(30, 1))
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatalf("ST did not converge: %v", res)
	}
	if res.Counters.Tx[rach.RACH1] == 0 || res.Counters.Tx[rach.RACH2] == 0 {
		t.Errorf("ST should use both codecs: %+v", res.Counters.Tx)
	}
	if res.TreePhases < 1 {
		t.Errorf("tree phases = %d", res.TreePhases)
	}
}

func TestSTBuildsSpanningTree(t *testing.T) {
	env := mustEnv(t, fastConfig(40, 5))
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatal("ST did not converge")
	}
	if len(res.TreeEdges) != 39 {
		t.Fatalf("tree has %d edges, want 39", len(res.TreeEdges))
	}
	if !graph.SpanningTreeOf(40, res.TreeEdges) {
		t.Error("TreeEdges is not a spanning tree")
	}
	if res.TreeWeight >= 0 {
		t.Errorf("tree weight %v should be negative (dBm sums)", res.TreeWeight)
	}
}

func TestSTTreeWeightBeatsRandomTree(t *testing.T) {
	// The paper: "The resultant weight of our spanning tree will always be
	// greater than weight of any spanning tree generated by same number of
	// nodes." Compare the protocol's (RSSI-mean-weighted) tree against the
	// reference graph's minimum spanning tree re-priced on true mean RSSI.
	env := mustEnv(t, fastConfig(40, 9))
	res := ST{}.Run(env)
	if !res.Converged {
		t.Fatal("ST did not converge")
	}
	// Price the protocol tree in true mean-RSSI terms.
	var protoWeight float64
	for _, e := range res.TreeEdges {
		protoWeight += float64(env.Transport.MeanRSSI(e.U, e.V))
	}
	g := env.ReferenceGraph()
	minTree := graph.KruskalMin(g)
	if len(minTree) == len(res.TreeEdges) {
		if w := graph.TotalWeight(minTree); protoWeight < w {
			t.Errorf("protocol tree (%v) lighter than the minimum tree (%v)", protoWeight, w)
		}
	}
}

func TestSTFasterThanFSTAtScale(t *testing.T) {
	// The paper's shape claims at fixed seeds, so a refactor that moves
	// the reproduction fails here instead of silently shifting the tables:
	// Fig. 3 — ST converges faster than the sequential baseline from n=200
	// on, and the gap widens with n; Fig. 4 — ST's message count relative
	// to FST falls with n (the crossover trend); and ST's Borůvka merging
	// needs at most ⌈log₂ n⌉ phases.
	sizes := []int{200, 400}
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var convRatio, txRatio [2]float64
			for i, n := range sizes {
				cfg := PaperConfig(n, seed)
				cfg.MaxSlots = 100000
				fst := FST{}.Run(mustEnv(t, cfg))
				st := ST{}.Run(mustEnv(t, cfg))
				if !fst.Converged || !st.Converged {
					t.Fatalf("n=%d: convergence failed: fst=%v st=%v", n, fst.Converged, st.Converged)
				}
				convRatio[i] = float64(st.ConvergenceSlots) / float64(fst.ConvergenceSlots)
				txRatio[i] = float64(st.Counters.TotalTx()) / float64(fst.Counters.TotalTx())
				if convRatio[i] >= 1 {
					t.Errorf("n=%d: ST (%d slots) should beat FST (%d slots)", n, st.ConvergenceSlots, fst.ConvergenceSlots)
				}
				if limit := log2ceil(n); uint64(st.TreePhases) > limit {
					t.Errorf("n=%d: ST ran %d merge phases, want <= ceil(log2 n) = %d", n, st.TreePhases, limit)
				}
				t.Logf("n=%d: ST/FST convergence %.3f, messages %.3f; ST phases %d", n, convRatio[i], txRatio[i], st.TreePhases)
			}
			if convRatio[1] >= convRatio[0] {
				t.Errorf("ST/FST convergence ratio should fall with n: %.3f at n=%d, %.3f at n=%d",
					convRatio[0], sizes[0], convRatio[1], sizes[1])
			}
			if txRatio[1] >= txRatio[0] {
				t.Errorf("ST/FST message ratio should fall with n: %.3f at n=%d, %.3f at n=%d",
					txRatio[0], sizes[0], txRatio[1], sizes[1])
			}
		})
	}
}

func TestComparableAtSmallScale(t *testing.T) {
	// Fig. 3's other claim: below ~200 nodes the methods are comparable —
	// within a factor of 2.5 of each other at n=50.
	cfg := fastConfig(50, 4)
	fst := FST{}.Run(mustEnv(t, cfg))
	st := ST{}.Run(mustEnv(t, cfg))
	if !fst.Converged || !st.Converged {
		t.Fatal("both should converge at n=50")
	}
	ratio := float64(st.ConvergenceSlots) / float64(fst.ConvergenceSlots)
	if ratio > 2.5 || ratio < 1/2.5 {
		t.Errorf("n=50 times should be comparable: FST=%d ST=%d (ratio %v)",
			fst.ConvergenceSlots, st.ConvergenceSlots, ratio)
	}
}

func TestOpsFSTGreaterThanST(t *testing.T) {
	// The O(n²) vs O(n log n) ranking-work gap.
	cfg := fastConfig(60, 6)
	fst := FST{}.Run(mustEnv(t, cfg))
	st := ST{}.Run(mustEnv(t, cfg))
	if fst.Ops <= st.Ops {
		t.Errorf("FST ops (%d) should exceed ST ops (%d)", fst.Ops, st.Ops)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := fastConfig(25, 13)
	a := ST{}.Run(mustEnv(t, cfg))
	b := ST{}.Run(mustEnv(t, cfg))
	if a.ConvergenceSlots != b.ConvergenceSlots || a.Counters != b.Counters || a.Ops != b.Ops {
		t.Errorf("same-seed runs differ:\n%v\n%v", a, b)
	}
	c := ST{}.Run(mustEnv(t, fastConfig(25, 14)))
	if a.ConvergenceSlots == c.ConvergenceSlots && a.Counters == c.Counters {
		t.Log("warning: different seeds produced identical results (possible but unlikely)")
	}
}

func TestDiscoveryPopulatesTables(t *testing.T) {
	env := mustEnv(t, fastConfig(30, 3))
	res := ST{}.Run(env)
	if res.DiscoveredLinks == 0 {
		t.Fatal("no links discovered")
	}
	if res.ServiceDiscovery <= 0 || res.ServiceDiscovery > 1 {
		t.Errorf("service discovery ratio = %v", res.ServiceDiscovery)
	}
	// With a full run every device should know most of its neighbourhood.
	for _, d := range env.Devices {
		if len(d.DiscoveredPeers) == 0 {
			t.Fatalf("device %d discovered nothing", d.ID)
		}
	}
}

func TestDisconnectedDeploymentDoesNotConverge(t *testing.T) {
	// A handful of devices scattered over 5x5 km cannot all reach each
	// other (deterministic range ≈ 89 m), so network-wide synchrony is
	// impossible. ST must detect the disconnected forest and exit early
	// instead of burning the slot budget.
	cfg := PaperConfig(4, 99)
	cfg.Area = geo.Rect{MinX: 0, MinY: 0, MaxX: 5000, MaxY: 5000}
	cfg.MaxSlots = 30000
	env := mustEnv(t, cfg)
	if env.ReferenceGraph().IsConnected() {
		t.Skip("random sparse deployment happened to be connected")
	}
	res := ST{}.Run(env)
	if res.Converged {
		t.Error("ST converged on a disconnected deployment")
	}
	if res.ConvergenceSlots != cfg.MaxSlots {
		t.Errorf("non-converged run should report MaxSlots, got %d", res.ConvergenceSlots)
	}
}

func TestMeshCouplingAblationRuns(t *testing.T) {
	cfg := fastConfig(30, 8)
	cfg.MeshCoupling = true
	res := ST{}.Run(mustEnv(t, cfg))
	// The ablation must still build the tree and count RACH2 traffic.
	if res.TreePhases == 0 || res.Counters.Tx[rach.RACH2] == 0 {
		t.Errorf("ablation lost the tree machinery: %+v", res)
	}
}

func TestResultString(t *testing.T) {
	res := Result{Protocol: "ST", N: 10, Converged: true, ConvergenceSlots: 123}
	if s := res.String(); s == "" {
		t.Error("empty String")
	}
	res2 := Result{Protocol: "FST", N: 10}
	if s := res2.String(); s == "" {
		t.Error("empty String for non-converged")
	}
}

func TestProtocolNames(t *testing.T) {
	if (FST{}).Name() != "FST" || (ST{}).Name() != "ST" {
		t.Error("protocol names wrong")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]uint64{1: 1, 2: 1, 3: 2, 4: 2, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
