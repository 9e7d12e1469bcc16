package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/discovery"
	"repro/internal/firefly"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/oscillator"
	"repro/internal/spectrum"
	"repro/internal/units"
	"repro/internal/xrand"
)

// The ablation and extension drivers. Those that loop over seeds and
// protocols run on the sweep runner: each is a variant axis over the shared
// job grid, a per-job measure, and a table rendered from the fold. The rest
// (Timeline, Mobility and the drivers that make no protocol run) stay
// direct functions.

// trial is one job's finished run as a driver's measure sees it.
type trial struct {
	cfg core.Config
	res core.Result
	// env is the Env the protocol ran on; nil when the result came from
	// the cache.
	env *core.Env
}

// measure reduces one trial to the metrics its driver's table averages; a
// nil slice leaves the trial out of the averages.
type measure func(trial) ([]float64, error)

// timeMsgs is the measure most ablations tabulate: convergence slots and
// control messages.
func timeMsgs(t trial) ([]float64, error) {
	return []float64{float64(t.res.ConvergenceSlots), float64(t.res.Counters.TotalTx())}, nil
}

// point folds the jobs of one (size, variant, protocol) point in seed order.
type point struct {
	n int
	// label is the variant's row label, proto the protocol's name.
	label      any
	proto      string
	runs, conv int
	// vals[k] holds metric k of every trial the measure kept.
	vals [][]float64
}

// mean averages metric k over the point's kept trials.
func (pt *point) mean(k int) float64 {
	var xs []float64
	if k < len(pt.vals) {
		xs = pt.vals[k]
	}
	return metrics.Summarize(xs).Mean
}

// converged renders the point's converged-runs column.
func (pt *point) converged() string { return fmt.Sprintf("%d/%d", pt.conv, pt.runs) }

// runPoints runs one protocol run per job of the sweep, reduces each with m,
// and folds the jobs into points in job order, so points come out ordered by
// size, then variant, then protocol.
func runPoints(opts Options, name string, protos []core.Protocol, variants []variant, m measure) ([]*point, error) {
	type outcome struct {
		converged bool
		vals      []float64
	}
	jobs, out, err := runSweep(opts, name, protos, variants, func(r *sweepRun) (outcome, error) {
		cfg := r.config()
		res, env, err := r.run(cfg)
		if err != nil {
			return outcome{}, err
		}
		vals, err := m(trial{cfg: cfg, res: res, env: env})
		return outcome{converged: res.Converged, vals: vals}, err
	})
	if err != nil {
		return nil, err
	}
	var pts []*point
	byKey := make(map[job]*point)
	for i, j := range jobs {
		key := job{n: j.n, v: j.v, p: j.p}
		pt := byKey[key]
		if pt == nil {
			pt = &point{n: j.n, label: variants[j.v].label, proto: protos[j.p].Name()}
			byKey[key] = pt
			pts = append(pts, pt)
		}
		o := out[i]
		pt.runs++
		if o.converged {
			pt.conv++
		}
		if o.vals != nil && pt.vals == nil {
			pt.vals = make([][]float64, len(o.vals))
		}
		for k, x := range o.vals {
			pt.vals[k] = append(pt.vals[k], x)
		}
	}
	return pts, nil
}

// fixedSize runs a driver at the one size in opts: a sweep of protos ×
// variants measured by m, rendered one row per point by row under a title
// formatted with the size and the seed count.
func fixedSize(opts Options, name, title string, header []string, protos []core.Protocol, variants []variant, m measure, row func(*point) []any) (*metrics.Table, error) {
	if len(opts.Sizes) != 1 {
		return nil, fmt.Errorf("experiments: %s runs at one size, got %d", name, len(opts.Sizes))
	}
	pts, err := runPoints(opts, name, protos, variants, m)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(fmt.Sprintf(title, opts.Sizes[0], opts.Seeds), header...)
	for _, pt := range pts {
		t.AddRow(row(pt)...)
	}
	return t, nil
}

// treeEnv returns the Env the trial's run used or, after a result-cache hit,
// rebuilds it: tree quality reads only the deployment, whose geometry the
// sweep memoizes, and Result.TreeEdges.
func (t trial) treeEnv() (*core.Env, error) {
	if t.env != nil {
		return t.env, nil
	}
	return core.NewEnv(t.cfg)
}

// treeQuality re-prices the protocol tree on true mean RSSI and compares it
// to the ideal maximum spanning tree of the reference graph g. Both weights
// are negative dBm sums, so the ratio ideal/actual is <= 1 with 1 = ideal
// (a heavier — less negative — actual tree pushes the ratio toward 1).
func treeQuality(env *core.Env, g *graph.Graph, edges []graph.Edge) float64 {
	var actual float64
	for _, e := range edges {
		actual += float64(env.Transport.MeanRSSI(e.U, e.V))
	}
	if actual == 0 {
		return 0
	}
	return graph.TotalWeight(graph.KruskalMax(g)) / actual
}

// AblationShadowing quantifies what the RSSI error model costs and buys: it
// sweeps the shadowing standard deviation (0 = perfect ranging, 4 dB, and
// Table I's 10 dB) and reports ST's convergence time, messages, and the
// quality of the built tree (its weight re-priced on true mean RSSI versus
// the ideal maximum spanning tree). This is ablation A of DESIGN.md.
func AblationShadowing(opts Options) (*metrics.Table, error) {
	var variants []variant
	for _, sigma := range []float64{0, 4, 10} {
		variants = append(variants, variant{sigma, func(c *core.Config) { c.ShadowSigmaDB = sigma }})
	}
	return fixedSize(opts, "ablation-shadowing", "Ablation A — ST vs shadowing σ (n=%d, %d seeds)",
		[]string{"sigma dB", "time mean", "msgs mean", "tree/ideal weight", "conv"}, stOnly, variants,
		func(t trial) ([]float64, error) {
			vals, _ := timeMsgs(t)
			q := 0.0
			if len(t.res.TreeEdges) > 0 {
				env, err := t.treeEnv()
				if err != nil {
					return nil, err
				}
				q = treeQuality(env, env.ReferenceGraph(), t.res.TreeEdges)
			}
			return append(vals, q), nil
		},
		func(pt *point) []any { return []any{pt.label, pt.mean(0), pt.mean(1), pt.mean(2), pt.converged()} })
}

// AblationTopology isolates the tree-coupling choice: ST as proposed versus
// ST with mesh coupling (tree still built for merging, but every heard PS
// couples). This is ablation B of DESIGN.md.
func AblationTopology(opts Options) (*metrics.Table, error) {
	return fixedSize(opts, "ablation-topology", "Ablation B — coupling topology (n=%d, %d seeds)",
		[]string{"coupling", "time mean", "msgs mean", "conv"}, stOnly, []variant{
			{"tree (proposed)", nil},
			{"mesh (ablated)", func(c *core.Config) { c.MeshCoupling = true }},
		}, timeMsgs,
		func(pt *point) []any { return []any{pt.label, pt.mean(0), pt.mean(1), pt.converged()} })
}

// AblationDrift sweeps per-device clock-rate offsets (ppm standard
// deviation: 0, 20, 500, 2000, 10000) and reports how both protocols hold
// up — the paper assumes ideal clocks ("all devices are same type"); this
// extension finds the drift level at which pulse coupling can no longer hold
// the network in a one-slot window. The tolerance is roughly β·T slots of
// correction per period against drift·T slots of divergence. Every run is
// capped at 60,000 slots, whatever Options.MaxSlots says.
func AblationDrift(opts Options) (*metrics.Table, error) {
	var variants []variant
	for _, ppm := range []float64{0, 20, 500, 2000, 10000} {
		variants = append(variants, variant{ppm, func(c *core.Config) {
			c.ClockDriftPPM = ppm
			c.SyncWindowSlots = 1
			c.MaxSlots = 60000
		}})
	}
	return fixedSize(opts, "ablation-drift", "Ablation D — clock drift tolerance (n=%d, %d seeds, 1-slot sync window)",
		[]string{"drift ppm", "proto", "conv", "time mean"}, fstST, variants, timeMsgs,
		func(pt *point) []any { return []any{pt.label, pt.proto, pt.converged(), pt.mean(0)} })
}

// protoAblation runs an FST-and-ST ablation over variants and renders one
// row per (variant, protocol): the variant's label under axis, the
// protocol, mean convergence time and messages, and the converged runs.
func protoAblation(opts Options, name, title, axis string, variants []variant) (*metrics.Table, error) {
	return fixedSize(opts, name, title+" (n=%d, %d seeds)",
		[]string{axis, "proto", "time mean", "msgs mean", "conv"}, fstST, variants, timeMsgs,
		func(pt *point) []any { return []any{pt.label, pt.proto, pt.mean(0), pt.mean(1), pt.converged()} })
}

// AblationPreambles sweeps the PRACH preamble pool size (1, 4, 16, 64): with
// one shared sequence every same-slot PS contends (the headline
// configuration); LTE's 64 Zadoff–Chu preambles make most same-slot PSs
// orthogonal. The sweep quantifies how much intra-codec contention costs
// each protocol — the "intra-group proximity signal interference" the paper
// mentions but does not measure. This is ablation E.
func AblationPreambles(opts Options) (*metrics.Table, error) {
	var variants []variant
	for _, pool := range []int{1, 4, 16, 64} {
		variants = append(variants, variant{pool, func(c *core.Config) { c.Preambles = pool }})
	}
	return protoAblation(opts, "ablation-preambles", "Ablation E — PRACH preamble pool size", "preambles", variants)
}

// AblationDetection contrasts the two PS detection models: the paper's flat
// −95 dBm threshold with a capture margin (headline configuration) versus a
// physical SINR detector over the LTE PRACH noise floor, where even
// sub-threshold arrivals interfere. This is ablation F.
func AblationDetection(opts Options) (*metrics.Table, error) {
	return protoAblation(opts, "ablation-detection", "Ablation F — PS detection model", "detector", []variant{
		{"threshold+capture", nil},
		{"SINR", func(c *core.Config) { c.SINRDetection = true }},
	})
}

// AblationChannel contrasts the light reading of Table I's stochastic
// terms (shadowing and fading drawn i.i.d. per PS) with the physical
// correlated forms (static Gudmundson shadowing field + block fading with a
// 50-slot coherence time). Correlated errors do not average out across a
// link's samples, so this bounds how much the headline results owe to the
// i.i.d. idealization. This is ablation G.
func AblationChannel(opts Options) (*metrics.Table, error) {
	return protoAblation(opts, "ablation-channel", "Ablation G — channel correlation", "channel", []variant{
		{"i.i.d. per sample", nil},
		{"correlated (shadow field + block fading)", func(c *core.Config) { c.CorrelatedChannel = true }},
	})
}

// AblationCapture sweeps the capture margin — the harshness of same-slot
// PS collisions: 0 dB (strongest always decodes), the default 6 dB, and a
// punishing 12 dB. Both protocols' alignment machinery rides on adoption
// handshakes rather than pulse delivery, so the sweep bounds how much the
// collision model matters. This is ablation H.
func AblationCapture(opts Options) (*metrics.Table, error) {
	var variants []variant
	for _, margin := range []float64{0, 6, 12} {
		variants = append(variants, variant{margin, func(c *core.Config) { c.CaptureMarginDB = margin }})
	}
	return protoAblation(opts, "ablation-capture", "Ablation H — capture margin", "margin dB", variants)
}

// Services sweeps the number of service-interest groups (1, 2, 4, 8): more
// services means fewer same-interest pairs per device, so application-level
// discovery coverage climbs faster (fewer pairs to find) while physical
// discovery and synchronization are untouched — codec orthogonality at
// work. This is the knob behind the paper's "different codecs scheme
// indicate different services".
func Services(opts Options) (*metrics.Table, error) {
	var variants []variant
	for _, svc := range []int{1, 2, 4, 8} {
		variants = append(variants, variant{svc, func(c *core.Config) { c.Services = svc }})
	}
	return fixedSize(opts, "services", "Service-interest groups (ST, n=%d, %d seeds)",
		[]string{"services", "time mean", "service discovery", "conv"}, stOnly, variants,
		func(t trial) ([]float64, error) {
			return []float64{float64(t.res.ConvergenceSlots), t.res.ServiceDiscovery}, nil
		},
		func(pt *point) []any { return []any{pt.label, pt.mean(0), pt.mean(1), pt.converged()} })
}

// ConvergenceDistribution runs many seeds at one size and reports the
// convergence-time distribution per protocol (percentiles, not just means —
// a protocol with a heavy tail is worse than its mean suggests), plus the
// Mann–Whitney p-value of the FST-vs-ST comparison.
func ConvergenceDistribution(opts Options) (*metrics.Table, error) {
	if opts.Seeds < 3 {
		return nil, fmt.Errorf("experiments: need >= 3 seeds for a distribution")
	}
	var samples [][]float64
	t, err := fixedSize(opts, "cdf", "Convergence-time distribution (n=%d, %d seeds, slots)",
		[]string{"proto", "p10", "p50", "p90", "p99", "mean", "conv"}, fstST, plain, timeMsgs,
		func(pt *point) []any {
			times := pt.vals[0]
			samples = append(samples, times)
			return []any{pt.proto,
				metrics.Percentile(times, 10), metrics.Percentile(times, 50),
				metrics.Percentile(times, 90), metrics.Percentile(times, 99),
				pt.mean(0), pt.converged()}
		})
	if err != nil {
		return nil, err
	}
	_, p := metrics.MannWhitneyU(samples[iFST], samples[iST])
	t.AddRow("MW p-value", p, "", "", "", "", "")
	return t, nil
}

// TreeQuality compares the spanning trees the two protocols build, against
// the ideal maximum spanning tree of the true (zero-fading) proximity
// graph: the fraction of ideal tree weight recovered, and the hop stretch
// of routing over the tree instead of the full graph. FST ranks links by a
// single fading-corrupted RSSI sample, ST by the dB-domain mean — this
// table is where that difference becomes visible.
func TreeQuality(opts Options) (*metrics.Table, error) {
	return fixedSize(opts, "treequality", "Tree quality (n=%d, %d seeds)",
		[]string{"proto", "weight vs ideal", "mean stretch", "max stretch"}, fstST, plain,
		func(t trial) ([]float64, error) {
			if len(t.res.TreeEdges) == 0 {
				return nil, nil
			}
			env, err := t.treeEnv()
			if err != nil {
				return nil, err
			}
			g := env.ReferenceGraph()
			st := graph.Stretch(g, t.res.TreeEdges, graph.HopCost)
			return []float64{treeQuality(env, g, t.res.TreeEdges), st.Mean, st.Max}, nil
		},
		func(pt *point) []any { return []any{pt.proto, pt.mean(0), pt.mean(1), pt.mean(2)} })
}

// ThreeWay compares the two distributed protocols against the
// infrastructure-assisted (BS) reference across a size sweep — the
// trade-off the paper's introduction frames: self-organization costs
// messages and time; infrastructure costs a base station.
func ThreeWay(opts Options) (*metrics.Table, error) {
	pts, err := runPoints(opts, "threeway", []core.Protocol{core.FST{}, core.ST{}, core.Centralized{}}, plain,
		func(t trial) ([]float64, error) {
			vals, _ := timeMsgs(t)
			return append(vals, t.res.Energy.PerDevice(t.cfg.N)), nil
		})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("FST vs ST vs BS-assisted (%d seeds)", opts.Seeds),
		"nodes", "proto", "time mean", "msgs mean", "mJ/device", "conv",
	)
	for _, pt := range pts {
		t.AddRow(pt.n, pt.proto, pt.mean(0), pt.mean(1), pt.mean(2), pt.converged())
	}
	return t, nil
}

// Mobility measures the re-discovery cost the paper defers to future work:
// devices walk (random waypoint at pedestrian speed) for walkSeconds
// between epochs; each epoch re-runs ST from scratch on the new geometry.
// Reported: re-convergence time, messages, and tree churn (fraction of the
// previous epoch's tree edges that survived the walk).
func Mobility(n, epochs int, walkSeconds float64, seed int64) (*metrics.Table, error) {
	if epochs < 2 {
		return nil, fmt.Errorf("experiments: mobility needs >= 2 epochs")
	}
	cfg := core.PaperConfig(n, seed)
	walkSrc := xrand.NewStreams(seed).Get("walk")
	positions := geo.UniformDeployment(n, cfg.Area, walkSrc)
	walkers := make([]*device.RandomWaypoint, n)
	const pedestrianMps = 1.4
	for i := range walkers {
		walkers[i] = device.NewRandomWaypoint(cfg.Area, pedestrianMps/1000, walkSrc)
	}
	walkSlots := int(walkSeconds * 1000)

	t := metrics.NewTable(
		fmt.Sprintf("ST under mobility (n=%d, %.0f s pedestrian walk between epochs)", n, walkSeconds),
		"epoch", "time", "msgs", "tree edges kept", "service discovery",
	)
	var prev []graph.Edge
	for epoch := 0; epoch < epochs; epoch++ {
		cfg.Seed = seed + int64(epoch)
		env, err := core.NewEnvAt(cfg, positions)
		if err != nil {
			return nil, err
		}
		res := core.ST{}.Run(env)
		kept := "-"
		if prev != nil {
			kept = fmt.Sprintf("%d/%d", sharedEdgeCount(prev, res.TreeEdges), len(prev))
		}
		t.AddRow(epoch, int64(res.ConvergenceSlots), res.Counters.TotalTx(), kept, res.ServiceDiscovery)
		prev = res.TreeEdges

		for s := 0; s < walkSlots; s++ {
			for i := range positions {
				positions[i] = walkers[i].Step(positions[i])
			}
		}
	}
	return t, nil
}

func sharedEdgeCount(a, b []graph.Edge) int {
	key := func(e graph.Edge) [2]int {
		if e.U < e.V {
			return [2]int{e.U, e.V}
		}
		return [2]int{e.V, e.U}
	}
	set := make(map[[2]int]bool, len(a))
	for _, e := range a {
		set[key(e)] = true
	}
	n := 0
	for _, e := range b {
		if set[key(e)] {
			n++
		}
	}
	return n
}

// Timeline samples one ST run every periodSamples periods and reports how
// neighbour discovery, service discovery and phase synchrony progress
// *simultaneously* — the paper's core pitch ("neighbour discovery as well
// as service discovery simultaneously ... achieves synchronization ...
// meanwhile") as a time series instead of a claim.
func Timeline(n int, seed int64) (*metrics.Table, error) {
	cfg := core.PaperConfig(n, seed)
	env, err := core.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	type sample struct {
		slot    units.Slot
		links   int
		service float64
		order   float64
	}
	var samples []sample
	env.Cfg.ProgressEvery = units.Slot(cfg.PeriodSlots)
	env.Cfg.ProgressTrace = func(slot units.Slot) {
		links := 0
		for _, d := range env.Devices {
			links += len(d.DiscoveredPeers)
		}
		samples = append(samples, sample{
			slot:    slot,
			links:   links,
			service: env.ServiceDiscoveryRatio(),
			order:   oscillator.OrderParameter(env.Phases()),
		})
	}
	res := core.ST{}.Run(env)

	t := metrics.NewTable(
		fmt.Sprintf("ST timeline (n=%d, seed %d): discovery and synchrony progress together", n, seed),
		"slot", "links known", "service discovery", "order parameter r",
	)
	for _, s := range samples {
		t.AddRow(int64(s.slot), s.links, s.service, s.order)
	}
	t.AddRow("converged", int64(res.ConvergenceSlots), res.ServiceDiscovery, oscillator.OrderParameter(env.Phases()))
	return t, nil
}

// Underlay quantifies the paper's headline motivation — "D2D communication
// underlaying cellular technology not only increases system capacity..." —
// on a single 500 m cell: k proximate D2D pairs reuse the uplink PRBs of 10
// cellular UEs (interference-aware greedy assignment), versus relaying the
// same traffic through the BS. Rates are Shannon bit/s/Hz on Table I path
// loss.
func Underlay(pairCounts []int, seed int64) (*metrics.Table, error) {
	if len(pairCounts) == 0 {
		pairCounts = []int{0, 2, 5, 10, 20}
	}
	const cell = 500.0
	maxPairs := 0
	for _, k := range pairCounts {
		if k > maxPairs {
			maxPairs = k
		}
	}
	streams := xrand.NewStreams(seed)
	src := streams.Get("underlay")
	area := geo.Square(cell)
	bs := area.Center()
	cellUEs := geo.UniformDeployment(10, area, src)
	pairs := make([][2]geo.Point, maxPairs)
	for i := range pairs {
		tx := geo.Point{X: src.Uniform(0, cell), Y: src.Uniform(0, cell)}
		rx := area.Clamp(geo.Point{X: tx.X + src.Uniform(-30, 30), Y: tx.Y + src.Uniform(-30, 30)})
		pairs[i] = [2]geo.Point{tx, rx}
	}

	t := metrics.NewTable(
		"D2D underlay capacity (bit/s/Hz; 10 cellular UEs, 500 m cell, greedy PRB reuse)",
		"D2D pairs", "cellular", "D2D", "underlay sum", "BS-relay sum", "gain",
	)
	for _, k := range pairCounts {
		s := spectrum.PaperScenario(bs, cellUEs, pairs[:k])
		assign := spectrum.GreedyAssign(s)
		under := s.Evaluate(assign)
		relay := s.CellularOnly(assign)
		gain := 0.0
		if relay.SumBpsHz > 0 {
			gain = under.SumBpsHz / relay.SumBpsHz
		}
		t.AddRow(k, under.CellularBpsHz, under.D2DBpsHz, under.SumBpsHz, relay.SumBpsHz, gain)
	}
	return t, nil
}

// DiscoverySchedules compares the classical neighbour-discovery baselines
// of the paper's related work ([4]–[9]) — birthday protocol and prime
// duty-cycling — against always-on periodic beaconing (what the firefly
// protocols effectively do), on a Table I deployment: discovery coverage,
// latency percentiles and awake time (the energy proxy).
func DiscoverySchedules(n int, seed int64, maxSlots int64) (*metrics.Table, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: discovery needs >= 2 devices")
	}
	if maxSlots <= 0 {
		maxSlots = 60000
	}
	cfg := core.PaperConfig(n, seed)
	streams := xrand.NewStreams(seed)
	positions := geo.UniformDeployment(n, cfg.Area, streams.Get("deployment"))
	radius := 89.0 // deterministic Table I detection range

	scheds := []discovery.Schedule{
		discovery.NewAlwaysOnBeacon(n, cfg.PeriodSlots, xrand.NewStreams(seed+1)),
		discovery.NewBirthday(n, 0.05, 0.20, xrand.NewStreams(seed+2)),
		discovery.NewBirthday(n, 0.01, 0.05, xrand.NewStreams(seed+3)),
		discovery.NewPrimeDuty(n, []int{7, 11, 13}, 3),
	}
	t := metrics.NewTable(
		fmt.Sprintf("Neighbour-discovery baselines (n=%d, radius %.0f m, cap %d slots)", n, radius, maxSlots),
		"schedule", "duty", "coverage", "median slots", "p90 slots", "awake slots/dev",
	)
	for _, s := range scheds {
		res := discovery.Simulate(positions, radius, s, units.Slot(maxSlots))
		coverage := 0.0
		if res.Links > 0 {
			coverage = float64(res.Discovered) / float64(res.Links)
		}
		t.AddRow(res.Schedule, s.DutyCycle(), coverage, res.MedianSlots, res.P90Slots, res.AwakeSlotsPerDevice)
	}
	return t, nil
}

// AblationSearch measures the firefly metaheuristic's pairwise-interaction
// counts for the basic O(n²) loop versus the ordered O(n log n) structure —
// the complexity argument of Section V in isolation. This is ablation C.
func AblationSearch(sizes []int, iterations int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation C — Algorithm 3 interactions per %d iterations", iterations),
		"n", "basic (n^2)", "ordered (n log n)", "speedup",
	)
	for _, n := range sizes {
		p := firefly.DefaultParams(n, 2, -10, 10)
		p.Iterations = iterations
		naive, err := firefly.Run(p, firefly.Sphere([]float64{0, 0}), xrand.NewStream(seed))
		if err != nil {
			return nil, err
		}
		ordered, err := firefly.RunOrdered(p, firefly.Sphere([]float64{0, 0}), xrand.NewStream(seed))
		if err != nil {
			return nil, err
		}
		speedup := float64(naive.Interactions) / float64(ordered.Interactions)
		t.AddRow(n, float64(naive.Interactions), float64(ordered.Interactions), speedup)
	}
	return t, nil
}
