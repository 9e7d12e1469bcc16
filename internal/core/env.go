package core

import (
	"fmt"

	"repro/internal/asyncnet"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/rach"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Env is one instantiated simulation world: deployment, channel, transport
// and devices. Both protocols run over an Env; build a fresh Env per run so
// stochastic state never leaks between runs.
type Env struct {
	Cfg       Config
	Streams   *xrand.Streams
	Channel   *radio.Channel
	Transport *rach.Transport
	Devices   []*device.Device
	// Alive tracks powered-on devices; fault-plan crashes clear entries.
	Alive []bool
	// Faults is the compiled fault schedule (nil when Cfg.Faults is nil).
	// The engine consults it for delivery filtering and the protocols pop
	// its membership/clock actions at their scheduled slots.
	Faults *faults.Injector
	// Net is the bounded-asynchrony message queue the engine drains
	// pulses through — non-nil only for a non-degenerate Cfg.Net plan, so
	// the lockstep path never pays for (or draws from) the layer.
	Net *asyncnet.Queue
	// netLossSrc drives the merge-handshake transport-loss draws when the
	// adversary has a loss rate (nil otherwise); consumed only on the
	// sequential protocol path, in handshake order.
	netLossSrc *xrand.Stream
	// nbr holds every device's neighbour table (neighbors.go).
	nbr *neighborTable
}

// AliveCount returns the number of powered-on devices.
func (e *Env) AliveCount() int {
	n := 0
	for _, a := range e.Alive {
		if a {
			n++
		}
	}
	return n
}

// NewEnv deploys a world from the configuration. Initial oscillator phases
// are uniform random — the hardest starting condition for synchrony.
func NewEnv(cfg Config) (*Env, error) {
	return newEnv(cfg, nil)
}

// NewEnvAt deploys a world at the given positions instead of drawing them —
// used by mobility studies that re-run discovery after devices have moved.
// len(positions) must equal cfg.N.
func NewEnvAt(cfg Config, positions []geo.Point) (*Env, error) {
	if len(positions) != cfg.N {
		return nil, fmt.Errorf("core: %d positions for N=%d", len(positions), cfg.N)
	}
	return newEnv(cfg, positions)
}

// coherenceSlots is the block-fading coherence time of the correlated
// channel: 50 slots ≈ a pedestrian at 2 GHz.
const coherenceSlots = 50

func newEnv(cfg Config, positions []geo.Point) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	streams := xrand.NewStreams(cfg.Seed)
	drawn := positions == nil
	if drawn {
		positions = geo.UniformDeployment(cfg.N, cfg.Area, streams.Get("deployment"))
	}
	ch := radio.NewChannel(cfg.PathLoss, cfg.ShadowSigmaDB, cfg.Fading, streams)
	// Candidate margin: 2σ of shadowing keeps strong positive fades
	// reachable without probing the whole plane. The geometry memoization
	// only applies to stream-drawn deployments — a caller-supplied layout
	// (NewEnvAt) is outside the cache key's (N, Seed, Area) contract — and
	// is pointless on the direct-geometry test path, which discards the
	// index anyway.
	var tr *rach.Transport
	if cfg.Geometry != nil && drawn && !cfg.directGeometry {
		tr = cfg.Geometry.newTransport(cfg, ch, positions)
	} else {
		tr = rach.NewTransport(ch, positions, cfg.TxPower, cfg.Threshold, 2*cfg.ShadowSigmaDB, nil)
	}
	// The neighbour tables sit on the index's rows even on the
	// direct-geometry path, whose deliveries find their entries by search.
	nbr := newNeighborTable(tr.LinkIndex(), cfg.N)
	if cfg.directGeometry {
		tr.DisableLinkIndex()
	}
	tr.CaptureMarginDB = cfg.CaptureMarginDB
	// Per-sender pulse streams: device i's broadcast channel draws come
	// from its own "pulse-i" stream, so evaluating distinct senders is
	// order-independent — the property the parallel run engine needs for
	// worker-count-invariant results. (The correlated-channel LinkSampler
	// below takes precedence; it is stateless per draw and equally safe.)
	pulse := make([]*xrand.Stream, cfg.N)
	for i := range pulse {
		pulse[i] = streams.Get(fmt.Sprintf("pulse-%d", i))
	}
	tr.SenderStreams = pulse
	if cfg.Preambles > 1 {
		tr.Preambles = cfg.Preambles
		tr.PreambleSrc = streams.Get("preambles")
	}
	if cfg.CorrelatedChannel {
		shadow := radio.NewShadowMap(positions, cfg.ShadowSigmaDB, 13, streams.Get("shadowmap"))
		block := radio.NewBlockFading(coherenceSlots, cfg.Fading, streams.Get("blockfading").Int63())
		model := cfg.PathLoss
		tx := cfg.TxPower
		tr.LinkSampler = func(from, to int, d units.Metre, slot units.Slot) units.DBm {
			// tx − Loss(d) is exactly the transport's cached mean received
			// power; reuse it when the pair is in the link index.
			_, p, ok := tr.LinkGeometry(from, to)
			if !ok {
				p = tx.Sub(model.Loss(d))
			}
			p = p.Add(units.DB(shadow.LinkShadowDB(from, to)))
			p = p.Add(units.DB(block.GainDB(from, to, slot)))
			return p
		}
	}
	if cfg.SINRDetection {
		tr.SINRMode = true
		tr.NoiseFloor = radio.NoiseFloor(radio.PRACHBandwidthHz, 9)
		// Required SINR chosen so the no-interference detection range
		// matches the Table I threshold: noise floor + required SINR =
		// Threshold.
		tr.RequiredSNRDB = float64(cfg.Threshold - tr.NoiseFloor)
	}

	phaseSrc := streams.Get("phases")
	driftSrc := streams.Get("drift")
	devs := make([]*device.Device, cfg.N)
	for i := range devs {
		osc := oscillator.New(phaseSrc.Float64(), cfg.PeriodSlots, cfg.Coupling)
		osc.JumpsPerCycle = cfg.JumpsPerCycle
		if cfg.ClockDriftPPM > 0 {
			// Clamp to ±3σ so a single pathological crystal cannot
			// dominate a run.
			z := driftSrc.Norm()
			if z > 3 {
				z = 3
			}
			if z < -3 {
				z = -3
			}
			osc.Rate = 1 + cfg.ClockDriftPPM*1e-6*z
		}
		devs[i] = &device.Device{ID: i, Pos: positions[i], TxPower: cfg.TxPower, Osc: osc, Service: device.Service(i % cfg.Services)}
	}
	alive := make([]bool, cfg.N)
	for i := range alive {
		alive[i] = true
	}
	// The fault schedule compiles once per env; joining devices are absent
	// from the start. The loss stream is name-hashed like every other, so
	// fetching it does not perturb the rest of the draw sequences.
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(cfg.Faults, streams.Get("faults"))
		for _, id := range inj.InitialDead() {
			alive[id] = false
		}
	}
	// The message adversary compiles only for a non-degenerate plan; its
	// streams are name-hashed like every other, so fetching them perturbs
	// no existing draw sequence and a degenerate run is bit-identical to
	// one with no Net at all.
	var netq *asyncnet.Queue
	var netLossSrc *xrand.Stream
	if cfg.Net != nil && !cfg.Net.Degenerate() {
		netq = asyncnet.NewQueue(cfg.Net, streams.Get("asyncnet"))
		if cfg.Net.LossRate > 0 {
			netLossSrc = streams.Get("netlink")
		}
	}
	env := &Env{Cfg: cfg, Streams: streams, Channel: ch, Transport: tr, Devices: devs, Alive: alive, Faults: inj, Net: netq, netLossSrc: netLossSrc, nbr: nbr}
	if cfg.Resume != nil {
		// The run's Resume overlays the rest (restoreEnvState).
		if err := env.restoreTables(cfg.Resume); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// ReferenceGraph builds the deterministic (zero-fading) proximity graph
// G(V,E) of Section IV: vertices are devices, edges join pairs whose mean
// received power meets the threshold, weighted by that power (heavier =
// stronger PS). It is the ground truth that discovery and the distributed
// tree are validated against.
func (e *Env) ReferenceGraph() *graph.Graph {
	g := graph.New(e.Cfg.N)
	for i := 0; i < e.Cfg.N; i++ {
		for _, j := range e.Transport.DeterministicNeighbors(i) {
			if j <= i {
				continue // add each undirected edge once
			}
			w := float64(e.Transport.MeanRSSI(i, j))
			_ = g.AddEdge(i, j, w)
		}
	}
	return g
}

// Phases snapshots all oscillator phases (for order-parameter traces).
func (e *Env) Phases() []float64 {
	out := make([]float64, len(e.Devices))
	for i, d := range e.Devices {
		out[i] = d.Osc.Phase
	}
	return out
}

// ServiceDiscoveryRatio reports the fraction of same-service pairs of the
// reference graph's edges that both endpoints have discovered at the
// application level. 1.0 means every reachable same-interest pair found
// each other.
func (e *Env) ServiceDiscoveryRatio() float64 {
	g := e.ReferenceGraph()
	t := e.nbr
	total, found := 0, 0
	for _, edge := range g.Edges() {
		if e.Devices[edge.U].Service != e.Devices[edge.V].Service {
			continue
		}
		total++
		if uv, ok := t.idx.Entry(edge.U, edge.V); ok && t.heard(uv) && t.heard(t.idx.Mirror(uv)) {
			found++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(found) / float64(total)
}

// linkTrials samples the channel between two devices until a transmission
// lands or the retry limit is hit, returning the number of transmissions
// spent. It models the H_Connect retransmission loop of Algorithm 2: the
// retry limit is the bounded-backoff budget, and when a message adversary
// with transport loss is active a channel-clean transmission can still be
// eaten by the network — the loop simply retransmits, staying inside the
// same bound.
func (e *Env) linkTrials(from, to int) int {
	// The transport's link cache already holds this pair's mean received
	// power (the merge handshake only probes discovered — in-range — peers);
	// SampleAtLeast then consumes exactly Sample's draws on top of it, and
	// skips the fading transform of a trial certain to miss.
	_, mean, ok := e.Transport.LinkGeometry(from, to)
	if !ok {
		d := units.Metre(e.Transport.Position(from).Dist(e.Transport.Position(to)))
		mean = e.Channel.MeanReceivedPower(e.Cfg.TxPower, d)
	}
	limit := e.Cfg.ConnectRetryLimit
	if limit < 1 {
		limit = 1
	}
	for trial := 1; trial <= limit; trial++ {
		if _, ok := e.Channel.SampleAtLeast(nil, mean, e.Cfg.Threshold); !ok {
			continue
		}
		if e.netLossSrc != nil && e.netLossSrc.Float64() < e.Cfg.Net.LossRate {
			continue // transport ate a clean handshake: retransmit
		}
		return trial
	}
	return limit
}

// linkBlocked reports whether an active fault-plan partition separates the
// two devices at slot: merge handshakes cannot cross it, so fragment merges
// over such edges defer until the partition lifts.
func (e *Env) linkBlocked(from, to int, slot units.Slot) bool {
	return e.Faults != nil && e.Faults.PartitionBlocked(from, to, int64(slot))
}
