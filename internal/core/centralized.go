package core

import (
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
// Procedure:
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

	// Phase 2: report collection over slotted random access. Every
	// contender, in id order, draws a slot in its contention window; an
	// attempt alone in its slot is received, colliders retry in the next
	// window. Attempts past the slot budget never reach the air, and the
	// next window is drawn only if it starts inside the budget.
	src := env.Streams.Get("bs-uplink")
	window := units.Slot(4 * cfg.N) // contention window sized to the cell
	res.Counters.Tx[rach.RACH2]++   // report request downlink
	res.Counters.TxBytes[rach.RACH2] += 4

	contenders := make([]int, cfg.N)
	for i := range contenders {
		contenders[i] = i
	}
	draws := make([]units.Slot, cfg.N)
	occupancy := make([]int, window)
	for start := slot; ; start += window {
		drawn := draws[:len(contenders)]
		for i := range drawn {
			drawn[i] = start + units.Slot(src.Intn(int(window)))
			occupancy[drawn[i]-start]++
		}
		retry := contenders[:0]
		for i, ue := range contenders {
			s := drawn[i]
			alone := occupancy[s-start] == 1
			if s > cfg.MaxSlots {
				retry = append(retry, ue)
				continue
			}
			res.Counters.Tx[rach.RACH1]++ // the attempt is on the air either way
			// A report carries the UE's whole neighbour table.
			res.Counters.TxBytes[rach.RACH1] += 4 + 6*uint64(env.nbr.links[ue])
			if !alone {
				retry = append(retry, ue)
				continue
			}
			res.Counters.Rx[rach.RACH1]++
			slot = max(slot, s) // the stop slot: where the last report lands
		}
		for _, s := range drawn {
			occupancy[s-start] = 0
		}
		contenders = retry
		if len(contenders) == 0 || start+window > cfg.MaxSlots {
			break
		}
	}
	if len(contenders) > 0 {
		// Report collection did not finish inside the slot budget, which
		// the collection covered with the oscillators frozen.
		slotEng.cover(cfg.MaxSlots)
		finishResult(env, slotEng, &res)
		return res
	}

	// Phase 3: central tree computation and timing broadcast.
	res.Counters.Tx[rach.RACH2]++ // tree + timing downlink
	res.Counters.TxBytes[rach.RACH2] += 4 + 8*uint64(cfg.N-1)
	// Each heard pair becomes one edge, weighted by the lower id's mean
	// RSSI when it heard the other, else by the higher id's.
	g := graph.New(cfg.N)
	t := env.nbr
	for i := range env.Devices {
		for _, e := range t.idx.ByID(i) {
			if p := t.idx.Peer(int(e)); t.heard(int(e)) && (p > i || !t.heard(t.idx.Mirror(int(e)))) {
				_ = g.AddEdge(min(i, p), max(i, p), float64(t.mean(int(e))))
			}
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
	// distributed protocols: StableRounds of aligned firing, cut at the
	// slot budget.
	need := cfg.StableRounds
	for round := 0; round < need && slot < cfg.MaxSlots; round++ {
		roundEnd := min(slot+units.Slot(cfg.PeriodSlots), cfg.MaxSlots)
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
	if res.Converged {
		cfg.emit(trace.Event{Slot: res.ConvergenceSlots, Kind: trace.KindConverge, A: -1, B: -1})
	}
	finishResult(env, slotEng, &res)
	return res
}

var _ Protocol = Centralized{}
