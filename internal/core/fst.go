package core

import (
	"repro/internal/graph"
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/units"
)

// FST is the baseline: the basic firefly spanning tree of Chao et al. [17]
// as the paper characterizes it (Fig. 2 shows exactly such a tree). The
// differences to the proposed ST method are the ones the paper names:
//
//   - the tree grows *sequentially* — a single tree rooted at one device
//     attaches the heaviest outgoing link, one node per RACH opportunity —
//     instead of merging all subtrees in parallel (O(n) rounds vs O(log n)
//     phases);
//   - link weights are the *latest single* RSSI sample, because the
//     baseline "did not consider how the signal strength will vary ...
//     when noise or real environment come in picture" (no dB-domain
//     averaging), so fading can mislead the heavy-edge choice;
//   - every processed pulse costs an O(n) brightness scan (the basic
//     Algorithm 3 double loop), versus the ordered structure's O(log n);
//     every join round likewise charges a scan of every neighbour table.
//     Both are the *modelled* cost, counted in Result.Ops: the simulator
//     itself finds the heaviest outgoing edge from an incremental frontier
//     (fstFrontier) and charges the scan arithmetically;
//   - a single RACH codec carries everything, so join handshakes ride the
//     same codec as sync pulses.
//
// Like ST, a node joining the tree adopts the tree's phase through the join
// handshake (sync-word adoption), and pulse coupling runs along tree edges
// to hold the structure locked.
//
// Under a fault plan (Config.Faults) the baseline self-heals through the
// run loop it shares with ST (heal.go), repairing the only way its
// sequential machinery allows: the tree is pruned to the component still
// containing its lowest-id live member, and every evicted survivor (and
// recovered device) re-joins one RACH opportunity at a time — the same
// O(n)-flavoured growth loop, now paid again per healing round.
type FST struct{}

// Name implements Protocol.
func (FST) Name() string { return "FST" }

// Run implements Protocol.
func (FST) Run(env *Env) Result {
	cfg := env.Cfg
	h := newHealer(env, "FST", uint64(cfg.N)) // basic Algorithm 3: scan all fireflies
	t := &fstTree{
		h:          h,
		inTree:     make([]bool, cfg.N),
		aliveCnt:   cfg.N,
		nextRound:  units.Slot(cfg.DiscoveryPeriods * cfg.PeriodSlots),
		roundSlots: units.Slot(cfg.FstRoundSlots),
	}
	// Under a fault plan the baseline tracks its tree as parent pointers
	// so the healing prune can find the component that keeps the root.
	if h.flt != nil {
		t.aliveCnt = env.AliveCount()
		t.parent = make([]int, cfg.N)
		for i := range t.parent {
			t.parent[i] = -1
		}
	} else {
		// Fault-free, the tree only grows and no split vetoes a link, so
		// the heaviest outgoing edge comes from the incremental frontier.
		// It starts stale: the first pick, fresh or resumed, rebuilds it
		// from one scan.
		t.front = &fstFrontier{env: env, inTree: t.inTree, stale: true}
		h.eng.heard = t.front.heard
	}
	// Tree members couple to every PS heard from other members (one
	// growing fragment); outsiders free-run until they join and adopt.
	couples := func(sender, receiver int) bool {
		return t.inTree[sender] && t.inTree[receiver]
	}
	// Telemetry probe: the unjoined devices each form their own component
	// beside the single growing tree.
	h.eng.fragFn = func() int {
		live, members := cfg.N, t.joined
		if h.flt != nil {
			live, members = env.AliveCount(), t.joinedLive
		}
		if t.joined == 0 {
			return live
		}
		return 1 + live - members
	}

	if rst := h.rst; rst != nil {
		fs := rst.FST
		h.resume(fs.Result, fs.Detector)
		copy(t.inTree, fs.InTree)
		t.treeEdges = append(t.treeEdges, fs.TreeEdges...)
		t.joined = fs.Joined
		t.joinedLive = t.joined
		t.nextRound = units.Slot(fs.NextRound)
		if ffs := fs.Faults; ffs != nil && h.flt != nil {
			h.restoreWatch(ffs.LastFired, ffs.PresumedDead, ffs.Synced, ffs.EpisodeOpen, ffs.EpisodeStart, ffs.NextWatch)
			copy(t.parent, ffs.Parent)
			t.joinedLive = ffs.JoinedLive
			t.healing, t.pruned = ffs.Healing, ffs.Pruned
		} else if h.flt != nil {
			// Fault branch resuming a fault-free prefix snapshot: the
			// prefix run tracked no fault-layer state, but its join log is
			// exact (no pruning ever happened), so the parent pointers the
			// healing prune needs are recoverable from the tree edges.
			// lastFired stays zero — the watchdog ignores never-heard
			// devices, and everyone still alive re-registers within one
			// firing interval, before any plan action can apply (the
			// recovery sweep resumes only from a checkpoint at least two
			// periods before its crash wave).
			for _, e := range fs.TreeEdges {
				t.parent[e.V] = e.U
			}
		}
	}
	return h.run(t, couples)
}

// fstTree is the baseline's topology: one tree grown by sequential joins,
// pruned and re-grown by the same join loop when faults break it.
type fstTree struct {
	h          *healer
	inTree     []bool
	treeEdges  []graph.Edge
	joined     int // tree members, corpses included until pruned
	joinedLive int // live tree members
	aliveCnt   int // live devices the tree must span
	nextRound  units.Slot
	roundSlots units.Slot

	// front finds the heaviest outgoing edge without a scan (nil under a
	// fault plan, whose pruning and partitions keep fstBestOutgoing).
	front *fstFrontier

	// Fault-layer state: parent pointers (nil without a plan), the healing
	// flag (the tree is structurally stale; exit waits until it regrows)
	// and whether a prune ever rewired the tree.
	parent  []int
	healing bool
	pruned  bool
}

func (t *fstTree) timer() (units.Slot, bool) { return t.nextRound, t.joinedLive < t.aliveCnt }

// round makes one join attempt per RACH opportunity.
func (t *fstTree) round(slot units.Slot) bool {
	if slot < t.nextRound || t.joinedLive >= t.aliveCnt {
		return false
	}
	h, env := t.h, t.h.env
	t.nextRound = slot + t.roundSlots
	if t.joined == 0 {
		// The root seeds the tree: by convention the live device with the
		// lowest id.
		r := 0
		for !env.Alive[r] {
			r++
		}
		t.inTree[r] = true
		t.joined, t.joinedLive = 1, 1
		t.front.join(r)
	}
	// A join handshake cannot cross an active network split (linkBlocked),
	// nor reach a presumed-dead device.
	var u, v int
	var ok bool
	ops := h.res.Ops
	if t.front != nil {
		u, v, ok = t.front.best(&h.res.Ops)
	} else {
		u, v, ok = fstBestOutgoing(env, t.inTree, h.presumedDead, h.linkBlocked, &h.res.Ops)
	}
	if probe := env.Cfg.fstPick; probe != nil {
		probe(t, u, v, ok, h.res.Ops-ops)
	}
	if !ok {
		return false
	}
	// Join handshake on the single codec: probe and accept, with channel
	// retries. It is charged to the protocol's counters, not the
	// transport's.
	res := &h.res
	trials := uint64(env.linkTrials(u, v) + env.linkTrials(v, u))
	res.Counters.Tx[rach.RACH1] += trials
	res.Counters.TxBytes[rach.RACH1] += trials * rach.PayloadBytes(rach.KindConnect)
	res.Counters.Rx[rach.RACH1] += 2
	t.inTree[v] = true
	t.front.join(v)
	t.joined++
	t.joinedLive++
	if t.parent != nil {
		t.parent[v] = u
	}
	t.treeEdges = append(t.treeEdges, graph.Edge{U: u, V: v, Weight: fstLinkWeight(env, u, v)})
	h.env.Cfg.emit(trace.Event{Slot: slot, Kind: trace.KindJoin, A: u, B: v})
	// Sync-word adoption: the joiner aligns to the tree.
	h.eng.materialize(u, slot)
	h.eng.materialize(v, slot)
	env.Devices[v].Osc.Phase = env.Devices[u].Osc.Phase
	h.eng.phaseWritten(v, slot)
	return false
}

func (t *fstTree) applied(slot units.Slot, ap appliedFaults) {
	t.aliveCnt = t.h.env.AliveCount()
	for _, d := range ap.crashed {
		if t.inTree[d] {
			// The corpse stays in the tree until the watchdog presumes
			// it; only the live-member count drops now.
			t.joinedLive--
			t.healing = true
		}
	}
	if len(ap.recovered) > 0 {
		t.healing = true
	}
	// A rebooted member's old attachment is stale, like a presumed one's:
	// prune it (and anything it orphaned) back out so it re-joins from
	// scratch.
	t.suspect(slot, ap.recovered)
}

// suspect prunes the tree around presumed members; the join loop re-grows
// it.
func (t *fstTree) suspect(slot units.Slot, presumed []int) {
	restructure := false
	for _, d := range presumed {
		restructure = restructure || t.inTree[d]
	}
	if restructure {
		t.healing = true
		t.joined, t.joinedLive = fstRestructure(t.h.env, t.inTree, t.parent, t.h.presumedDead)
		t.pruned = true
	}
	t.reaim(slot)
}

// reaim restarts the join cadence if it went stale while the tree was
// complete: re-joins must run at slots the engine provably steps.
func (t *fstTree) reaim(slot units.Slot) {
	if t.joinedLive < t.aliveCnt && t.nextRound <= slot {
		t.nextRound = slot + t.roundSlots
	}
}

// healed completes a healing round once the pruned tree has grown back
// over every live device.
func (t *fstTree) healed() bool {
	if t.healing && t.complete() {
		t.healing = false
		return true
	}
	return false
}

func (t *fstTree) complete() bool { return t.joined > 0 && t.joinedLive == t.aliveCnt }

func (t *fstTree) settled() bool { return t.complete() && !t.healing }

func (t *fstTree) busy() bool { return t.healing }

func (t *fstTree) capture(st *snapshot.State) {
	h := t.h
	st.FST = &snapshot.FSTState{
		Result:    resultState(&h.res),
		Detector:  h.det.State(),
		InTree:    append([]bool(nil), t.inTree...),
		TreeEdges: append([]graph.Edge(nil), t.treeEdges...),
		Joined:    t.joined,
		NextRound: int64(t.nextRound),
	}
	if h.flt != nil {
		st.FST.Faults = &snapshot.FSTFaultState{
			Parent:       append([]int(nil), t.parent...),
			LastFired:    append([]int64(nil), h.lastFired...),
			PresumedDead: append([]bool(nil), h.presumedDead...),
			JoinedLive:   t.joinedLive,
			Healing:      t.healing,
			Pruned:       t.pruned,
			Synced:       h.synced,
			EpisodeOpen:  h.episodeOpen,
			EpisodeStart: int64(h.episodeStart),
			NextWatch:    int64(h.nextWatch),
		}
	}
}

func (t *fstTree) finish(res *Result) {
	if t.pruned {
		// Healing rounds made the join log stale; derive the final tree
		// from the surviving parent pointers instead.
		t.treeEdges = t.treeEdges[:0]
		for v, u := range t.parent {
			if t.inTree[v] && u >= 0 {
				t.treeEdges = append(t.treeEdges, graph.Edge{U: u, V: v, Weight: fstLinkWeight(t.h.env, u, v)})
			}
		}
	}
	res.TreeEdges = t.treeEdges
	res.TreeWeight = graph.TotalWeight(t.treeEdges)
}

// fstLinkWeight returns the latest observed RSSI on the (u,v) link from
// whichever direction holds an observation (u's table first).
func fstLinkWeight(env *Env, u, v int) float64 {
	if s, ok := env.Devices[u].DiscoveredPeers[v]; ok {
		return float64(s.Last)
	}
	if s, ok := env.Devices[v].DiscoveredPeers[u]; ok {
		return float64(s.Last)
	}
	return 0
}

// fstBestOutgoing scans every tree member's neighbour table (and every
// outsider's view toward tree members) for the heaviest edge leaving the
// tree, ranked by the *latest* RSSI sample. The scan work is charged to the
// ops counter — this is the baseline's O(n²)-flavoured per-round cost. It
// picks every join under a fault plan, and is the oracle the fault-free
// frontier (fstFrontier) is tested against. Under a fault plan (non-nil
// presumed) powered-off and presumed-dead devices neither scan nor qualify
// as endpoints, and edges the blocked predicate vetoes (an active network
// split) cannot carry the join handshake. For plans without partitions the presumed check adds nothing
// (a presumed device there is really dead) and nothing is ever blocked.
func fstBestOutgoing(env *Env, inTree []bool, presumed []bool, blocked func(int, int) bool, ops *uint64) (u, v int, ok bool) {
	excluded := func(i int) bool { return presumed != nil && (!env.Alive[i] || presumed[i]) }
	best := -1e18
	for i, d := range env.Devices {
		if excluded(i) {
			continue
		}
		*ops += uint64(len(d.DiscoveredPeers))
		for peer, stat := range d.DiscoveredPeers {
			if excluded(peer) || (blocked != nil && blocked(i, peer)) {
				continue
			}
			var tu, tv int
			switch {
			case inTree[i] && !inTree[peer]:
				tu, tv = i, peer
			case !inTree[i] && inTree[peer]:
				tu, tv = peer, i
			default:
				continue
			}
			w := float64(stat.Last)
			// Deterministic tie-break keeps runs reproducible even
			// in the measure-zero case of equal samples.
			if !ok || w > best || (w == best && (tu < u || (tu == u && tv < v))) {
				best, u, v, ok = w, tu, tv, true
			}
		}
	}
	return u, v, ok
}

// fstFrontier is the fault-free baseline's join frontier: a lazy max-heap
// of the directed observations that cross the tree boundary, so a join
// round finds what fstBestOutgoing's scan would pick without walking every
// neighbour table. Each entry carries one observation's latest RSSI as its
// key, oriented (tree member u, outsider v), and ranks exactly like the
// scan: heavier first, then the lower (u, v).
//
// The heap holds an entry for every current crossing observation, or is
// marked stale: crossing deliveries push on the loop goroutine once each
// wave settles (heard), a join pushes the joiner's table toward outsiders
// and the outsiders' entries toward the joiner, and a stale heap — at the
// first pick, fresh or resumed, or after its buffer filled — is rebuilt
// from one scan. Entries whose outsider joined since, or whose RSSI is no
// longer the latest sample in either direction, are dropped when they
// surface. The tree only grows without a fault plan, so a dropped entry
// can never become current again.
//
// The buffer is allocated once per run, at the first rebuild, to hold every
// candidate link the transport could ever deliver along (or twice the
// table entries, if that is more): a rebuild always fits, and filling the
// buffer again costs one rebuild per buffer's worth of pushes, so the
// scan's O(links) cost is paid per buffer, not per round.
type fstFrontier struct {
	env    *Env
	inTree []bool
	heap   []fstEdge
	stale  bool
}

// fstEdge is one frontier entry: the observed RSSI w on link (u, v), u in
// the tree and v outside it when pushed.
type fstEdge struct {
	w    float64
	u, v int32
}

// above reports whether a ranks before b: fstBestOutgoing's tie-break.
func (a fstEdge) above(b fstEdge) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// edge orients device o's observation of peer p, at RSSI w, as a frontier
// entry; ok is false unless it crosses the tree boundary.
func (f *fstFrontier) edge(o, p int, w units.DBm) (e fstEdge, ok bool) {
	switch {
	case f.inTree[o] && !f.inTree[p]:
		return fstEdge{w: float64(w), u: int32(o), v: int32(p)}, true
	case !f.inTree[o] && f.inTree[p]:
		return fstEdge{w: float64(w), u: int32(p), v: int32(o)}, true
	}
	return e, false
}

// heard pushes the wave's crossing deliveries. Powered-off receivers
// recorded nothing.
func (f *fstFrontier) heard(dels []rach.Delivery) {
	if f.stale {
		return
	}
	for i := range dels {
		d := &dels[i]
		if e, ok := f.edge(d.To, d.Msg.From, d.Msg.RSSI); ok && f.env.Alive[d.To] {
			f.push(e)
		}
	}
}

// join pushes the observations device v's joining made crossing: v's own
// table toward outsiders, and every outsider's entry toward v.
func (f *fstFrontier) join(v int) {
	if f == nil || f.stale {
		return
	}
	for peer, s := range f.env.Devices[v].DiscoveredPeers {
		if e, ok := f.edge(v, peer, s.Last); ok {
			f.push(e)
		}
	}
	for p, d := range f.env.Devices {
		if f.inTree[p] {
			continue
		}
		if s, ok := d.DiscoveredPeers[v]; ok {
			f.push(fstEdge{w: float64(s.Last), u: int32(v), v: int32(p)})
		}
	}
}

// best returns the heaviest outgoing edge, as fstBestOutgoing would, and
// charges ops the scan it models: the size of every neighbour table.
func (f *fstFrontier) best(ops *uint64) (u, v int, ok bool) {
	links := 0
	for _, d := range f.env.Devices {
		links += len(d.DiscoveredPeers)
	}
	*ops += uint64(links)
	if f.stale {
		f.rebuild(links)
	}
	for len(f.heap) > 0 {
		if e := f.heap[0]; f.current(e) {
			return int(e.u), int(e.v), true
		}
		f.pop()
	}
	return 0, 0, false
}

// current reports whether e is still a crossing observation's latest
// sample, in either direction.
func (f *fstFrontier) current(e fstEdge) bool {
	u, v := int(e.u), int(e.v)
	if !f.inTree[u] || f.inTree[v] {
		return false
	}
	if s, ok := f.env.Devices[u].DiscoveredPeers[v]; ok && float64(s.Last) == e.w {
		return true
	}
	s, ok := f.env.Devices[v].DiscoveredPeers[u]
	return ok && float64(s.Last) == e.w
}

// rebuild refills the heap from one scan of every neighbour table (links
// entries in all).
func (f *fstFrontier) rebuild(links int) {
	if cap(f.heap) < links {
		f.heap = make([]fstEdge, 0, max(2*links, f.env.Transport.CandidatePairs()))
	}
	h := f.heap[:0]
	for i, d := range f.env.Devices {
		for peer, s := range d.DiscoveredPeers {
			if e, ok := f.edge(i, peer, s.Last); ok {
				h = append(h, e)
			}
		}
	}
	f.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		f.siftDown(i, h[i])
	}
	f.stale = false
}

// push adds e, or marks the heap stale when its buffer is full.
func (f *fstFrontier) push(e fstEdge) {
	if f.stale {
		return
	}
	if len(f.heap) == cap(f.heap) {
		f.stale = true
		return
	}
	h := append(f.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.above(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	f.heap = h
}

// pop drops the top entry.
func (f *fstFrontier) pop() {
	last := len(f.heap) - 1
	e := f.heap[last]
	f.heap = f.heap[:last]
	if last > 0 {
		f.siftDown(0, e)
	}
}

// siftDown places e at index i or below.
func (f *fstFrontier) siftDown(i int, e fstEdge) {
	h := f.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].above(h[c]) {
			c++
		}
		if !h[c].above(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// fstRestructure prunes the baseline's join tree after membership changed:
// dead and presumed-dead members leave, and every member no longer
// connected — through live members only — to the component containing the
// lowest-id live member is evicted to re-join from scratch. The kept
// component is re-rooted there (BFS over the surviving parent edges), so
// parent pointers stay consistent for the next prune. Returns the new
// joined/joinedLive counts (equal: every kept member is live).
func fstRestructure(env *Env, inTree []bool, parent []int, presumed []bool) (joined, joinedLive int) {
	n := len(inTree)
	live := func(i int) bool { return inTree[i] && env.Alive[i] && !presumed[i] }
	root := -1
	for i := 0; i < n; i++ {
		if live(i) {
			root = i
			break
		}
	}
	if root < 0 {
		// No live member survives: dissolve the tree entirely; the join
		// loop re-seeds it.
		for i := range inTree {
			inTree[i] = false
			parent[i] = -1
		}
		return 0, 0
	}
	// Undirected adjacency over parent edges whose both endpoints are
	// live members; BFS from the lowest-id live member re-roots the kept
	// component.
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		if u := parent[v]; u >= 0 && live(v) && live(u) {
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	keep := make([]bool, n)
	keep[root] = true
	queue := []int{root}
	newParent := make([]int, n)
	for i := range newParent {
		newParent[i] = -1
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if !keep[y] {
				keep[y] = true
				newParent[y] = x
				queue = append(queue, y)
			}
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] {
			parent[i] = newParent[i]
			joined++
			joinedLive++
		} else {
			inTree[i] = false
			parent[i] = -1
		}
	}
	return joined, joinedLive
}
