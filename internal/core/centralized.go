package core

import (
	"sort"

	"repro/internal/energy"
	"repro/internal/eventsim"
	"repro/internal/graph"
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/units"
)

// Centralized is the infrastructure-assisted reference the paper's
// introduction contrasts D2D self-organization against: "In infrastructure
// based D2D communication, initiation of D2D communication is manage[d] by
// BS." It is not part of the paper's evaluation — it is the yardstick that
// shows what the distributed protocols give up and gain.
//
// Procedure (driven by a discrete-event schedule, package eventsim):
//
//  1. Devices beacon for DiscoveryPeriods periods exactly as ST does,
//     building RSSI neighbour tables (the BS cannot measure D2D links
//     itself — only the UEs can).
//  2. The eNB broadcasts a report request (one downlink message; the BS
//     reaches every UE). Each UE uploads its neighbour table over slotted
//     random access: it picks a random uplink slot in a contention window;
//     two UEs in the same slot collide and both retry in the next window.
//  3. When all reports are in, the eNB computes the maximum spanning tree
//     centrally (Kruskal on the symmetrized tables), then broadcasts the
//     tree and the common timing reference (one downlink message). Every
//     UE adopts the BS clock — network-assisted synchronization is
//     immediate.
//
// Accounting: uplink reports are charged to the RACH1 counters (they ride
// the random access channel, retries included); the two downlink broadcasts
// to RACH2. Convergence still requires the same StableRounds of aligned
// firing the distributed protocols must show.
type Centralized struct{}

// Name implements Protocol.
func (Centralized) Name() string { return "BS" }

// Run implements Protocol.
func (Centralized) Run(env *Env) Result {
	cfg := env.Cfg
	res := Result{Protocol: "BS", N: cfg.N}

	// A resume overlays the saved environment state before the engine is
	// built. Only the discovery slot loop is checkpointable: the uplink
	// collection and the timing broadcast run in one piece after it, so a
	// resume from a discovery checkpoint replays them fresh — which is
	// trajectory-identical, since they depend only on the (restored)
	// discovery tables and the (restored) "bs-uplink" stream cursor.
	rst := resumeFor(cfg, "BS")
	if rst != nil {
		restoreEnvState(env, rst)
	}

	// Phase 1: beaconing discovery, identical to the distributed path
	// (no coupling — timing will come from the BS).
	couples := func(sender, receiver int) bool { return false }
	discoverySlots := units.Slot(cfg.DiscoveryPeriods * cfg.PeriodSlots)
	slotEng := newEngine(env)
	defer slotEng.close()
	// Telemetry probe: uplink reports and downlink broadcasts are charged
	// to the protocol's counters, not the transport's.
	slotEng.protoTx = func() uint64 { return res.Counters.TotalTx() }
	bound := discoverySlots
	if cfg.MaxSlots < bound {
		bound = cfg.MaxSlots
	}
	startSlot := units.Slot(1)
	if rst != nil {
		applyResultState(&res, rst.BS.Result)
		slotEng.restoreEngineState(rst.Engine)
		startSlot = slotEng.nextStep(units.Slot(rst.Slot))
	}
	for cur := startSlot; cur <= bound; cur = slotEng.nextStep(cur) {
		slotEng.stepSlot(cur, couples, 1, &res.Ops)
		if slotEng.wantsCheckpoint(cur) {
			slotEng.runCheckpoint(func() *snapshot.State {
				st := captureState(env, slotEng, cur)
				st.Protocol = "BS"
				st.BS = &snapshot.BSState{Result: resultState(&res)}
				return st
			})
		}
	}
	// Catch lazily advanced phases up to the discovery boundary: phase 2
	// freezes the oscillators while the uplink collection runs, exactly as
	// slot-by-slot stepping leaves them.
	slotEng.finish(bound)
	slot := bound + 1

	// Phase 2: report collection over slotted random access, simulated on
	// the discrete-event scheduler. Each UE retries in successive contention windows
	// until its slot is collision-free.
	eng := eventsim.New()
	src := env.Streams.Get("bs-uplink")
	window := units.Slot(4 * cfg.N) // contention window sized to the cell
	reported := make([]bool, cfg.N)
	pending := cfg.N
	res.Counters.Tx[rach.RACH2]++ // report request downlink
	res.Counters.TxBytes[rach.RACH2] += 4

	var scheduleWindow func(start units.Slot, contenders []int)
	scheduleWindow = func(start units.Slot, contenders []int) {
		// Every contender draws a slot in [start, start+window).
		claims := make(map[units.Slot][]int)
		for _, ue := range contenders {
			s := start + units.Slot(src.Intn(int(window)))
			claims[s] = append(claims[s], ue)
		}
		var losers []int
		last := start
		for s, ues := range claims {
			if s > last {
				last = s
			}
			for _, ue := range ues {
				ue := ue
				collided := len(ues) > 1
				eng.Schedule(s, "uplink-report", func(*eventsim.Engine) {
					res.Counters.Tx[rach.RACH1]++ // the attempt is on the air either way
					// A report carries the UE's whole neighbour table.
					res.Counters.TxBytes[rach.RACH1] += 4 + 6*uint64(len(env.Devices[ue].DiscoveredPeers))
					if collided {
						return
					}
					res.Counters.Rx[rach.RACH1]++
					if !reported[ue] {
						reported[ue] = true
						pending--
					}
				})
				if collided {
					losers = append(losers, ue)
				}
			}
		}
		if len(losers) > 0 {
			// Losers contend again in the window after this one. Sort
			// first: the claims map iterates in arbitrary order, and
			// the retry draws must not depend on it.
			retry := append([]int(nil), losers...)
			sort.Ints(retry)
			eng.Schedule(start+window, "retry-window", func(*eventsim.Engine) {
				scheduleWindow(start+window, retry)
			})
		}
		_ = last
	}
	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	scheduleWindow(slot, all)
	eng.RunUntil(cfg.MaxSlots, func() bool { return pending == 0 })
	slot = eng.Now()
	if pending > 0 {
		// Report collection did not finish inside the slot budget.
		res.ConvergenceSlots = cfg.MaxSlots
		res.Counters = mergeTransport(res.Counters, env.Transport.Counters())
		res.Energy = energy.LTEDefaults().Charge(res.Counters, cfg.N, res.ConvergenceSlots)
		res.DiscoveredLinks = countDiscoveredLinks(env)
		res.ServiceDiscovery = env.ServiceDiscoveryRatio()
		res.ActiveSlots, res.TotalSlots = slotEng.slotStats()
		return res
	}

	// Phase 3: central tree computation and timing broadcast.
	res.Counters.Tx[rach.RACH2]++ // tree + timing downlink
	res.Counters.TxBytes[rach.RACH2] += 4 + 8*uint64(cfg.N-1)
	g := graph.New(cfg.N)
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	for i, d := range env.Devices {
		for peer, stat := range d.DiscoveredPeers {
			k := pair{min2(i, peer), max2(i, peer)}
			if seen[k] {
				continue
			}
			seen[k] = true
			_ = g.AddEdge(k.a, k.b, float64(stat.Mean()))
		}
	}
	tree := graph.KruskalMax(g)
	res.TreeEdges = tree
	res.TreeWeight = graph.TotalWeight(tree)

	// Network-assisted timing: everyone adopts the BS phase reference. The
	// uplink collection advanced absolute time without stepping the
	// oscillators, so the engine re-pins every phase at the current slot
	// (no ramping through the gap — slot-by-slot stepping never stepped it
	// either) and rebuilds its fire schedule from the adopted phases.
	for _, d := range env.Devices {
		d.Osc.Phase = 0
	}
	slotEng.resyncAll(slot)

	// Validate synchrony with the same detector discipline as the
	// distributed protocols: StableRounds of aligned firing.
	need := cfg.StableRounds
	for round := 0; round < need && slot <= cfg.MaxSlots; round++ {
		roundEnd := slot + units.Slot(cfg.PeriodSlots)
		for cur := slotEng.nextStep(slot); cur <= roundEnd; cur = slotEng.nextStep(cur) {
			fired := slotEng.stepSlot(cur, couples, 1, &res.Ops)
			if len(fired) == cfg.N {
				if round == need-1 {
					res.Converged = true
					res.ConvergenceSlots = cur
				}
			}
		}
		slot = roundEnd
	}
	slotEng.finish(slot)
	if !res.Converged {
		res.ConvergenceSlots = cfg.MaxSlots
	} else {
		cfg.emit(trace.Event{Slot: res.ConvergenceSlots, Kind: trace.KindConverge, A: -1, B: -1})
	}
	res.ActiveSlots, res.TotalSlots = slotEng.slotStats()

	res.Counters = mergeTransport(res.Counters, env.Transport.Counters())
	res.Energy = energy.LTEDefaults().Charge(res.Counters, cfg.N, res.ConvergenceSlots)
	res.DiscoveredLinks = countDiscoveredLinks(env)
	res.ServiceDiscovery = env.ServiceDiscoveryRatio()
	if env.Net != nil {
		c := env.Net.Counters()
		res.Net = &c
	}
	return res
}

// mergeTransport folds the transport's RACH1 beacon traffic into counters
// accumulated by the protocol itself.
func mergeTransport(c rach.Counters, tc rach.Counters) rach.Counters {
	c.Tx[rach.RACH1] += tc.Tx[rach.RACH1]
	c.Rx[rach.RACH1] += tc.Rx[rach.RACH1]
	c.TxBytes[rach.RACH1] += tc.TxBytes[rach.RACH1]
	c.Tx[rach.RACH2] += tc.Tx[rach.RACH2]
	c.Rx[rach.RACH2] += tc.Rx[rach.RACH2]
	c.TxBytes[rach.RACH2] += tc.TxBytes[rach.RACH2]
	return c
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var _ Protocol = Centralized{}
