package rach

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
)

// LinkIndex is the transport's precomputed link-geometry cache: for every
// device, the candidate neighbour list the spatial grid would return for the
// candidate radius, together with each ordered pair's Euclidean distance and
// deterministic mean received power txPower − Loss(d). Device positions are
// fixed for the life of an Env, so all of this is computed once per
// transport (one grid pass over every device) and the steady-state cost of
// a PS delivery attempt drops to the stochastic shadowing/fading draws plus
// an add — no cell scan, no square root, no log10 on the hot path.
//
// Layout is CSR-style for cache locality, with the row directory split into
// per-device start offsets and degrees (start[i], deg[i]) instead of the
// classic monotonic offsets array: rows may then live anywhere in the packed
// arrays, which lets Reorder pack them in an engine's shard-major device
// order so a spatial shard's rows are physically contiguous. A broadcast
// still walks three flat arrays linearly. Memory is O(Σ degree) — one id
// (int32), one distance, one mean power and one lookup-permutation entry
// per directed candidate pair.
//
// Row order is a contract, not a convenience: the packed ids preserve the
// grid's cell-scan traversal order exactly, because a sender's channel draws
// are consumed in candidate iteration order — reordering the row would
// reassign shadowing/fading draws across links and change every downstream
// result. Golden tests pin that order; Reorder relocates whole rows without
// touching their contents. The by-id sorted view needed for point lookups
// (Unicast, MeanRSSI, GHS link queries) is carried as a per-row permutation
// (byID) instead of reordering the rows themselves.
type LinkIndex struct {
	start  []int
	deg    []int
	ids    []int32
	dist   []units.Metre
	meanRx []units.DBm
	// byID holds, per row, the permutation of local row positions that
	// orders the row's ids ascending — the binary-search view for Lookup.
	byID []int32
}

// buildLinkIndex runs the one-shot geometry pass: one grid query per device
// at the candidate radius, keeping the query's traversal order, distances
// with Point.Dist's exact rounding (via geo.NeighborsWithDist), and the mean
// received power from the channel's own MeanReceivedPower — bit-compatible
// with what the direct per-call path derives.
func buildLinkIndex(grid *geo.Grid, pts []geo.Point, radius float64, ch *radio.Channel, txPower units.DBm) *LinkIndex {
	n := len(pts)
	x := &LinkIndex{start: make([]int, n), deg: make([]int, n)}
	var row []geo.IDDist
	for i := 0; i < n; i++ {
		row = grid.NeighborsWithDist(pts[i], radius, i, row[:0])
		x.start[i] = len(x.ids)
		x.deg[i] = len(row)
		for _, c := range row {
			d := units.Metre(c.Dist)
			x.ids = append(x.ids, int32(c.ID))
			x.dist = append(x.dist, d)
			x.meanRx = append(x.meanRx, ch.MeanReceivedPower(txPower, d))
		}
	}
	x.byID = make([]int32, len(x.ids))
	for i := 0; i < n; i++ {
		x.sortRowByID(i)
	}
	return x
}

// sortRowByID rebuilds row i's ascending-id lookup permutation.
func (x *LinkIndex) sortRowByID(i int) {
	lo, hi := x.start[i], x.start[i]+x.deg[i]
	perm := x.byID[lo:hi]
	for p := range perm {
		perm[p] = int32(p)
	}
	ids := x.ids[lo:hi]
	sort.Slice(perm, func(a, b int) bool { return ids[perm[a]] < ids[perm[b]] })
}

// Reorder physically repacks the rows so that they appear in the given
// device order (order[k] is the device whose row lands k-th) — for engines
// that iterate senders in a spatially sharded order, this makes a shard's
// rows one contiguous block of the packed arrays. Row contents — candidate
// ids, their traversal order, distances, powers, the lookup permutation —
// are copied verbatim, so every Row and Lookup result is bit-identical
// before and after; only physical placement changes. order must be a
// permutation of [0, n). Rows already packed in that order — the identity
// permutation on a fresh build, as a single-shard engine asks for — are left
// in place without a copy.
func (x *LinkIndex) Reorder(order []int32) {
	n := len(x.start)
	if len(order) != n {
		panic("rach: Reorder permutation length mismatch")
	}
	if x.packedIn(order) {
		return
	}
	ids := make([]int32, 0, len(x.ids))
	dist := make([]units.Metre, 0, len(x.dist))
	meanRx := make([]units.DBm, 0, len(x.meanRx))
	byID := make([]int32, 0, len(x.byID))
	start := make([]int, n)
	for _, dev := range order {
		lo, hi := x.start[dev], x.start[dev]+x.deg[dev]
		start[dev] = len(ids)
		ids = append(ids, x.ids[lo:hi]...)
		dist = append(dist, x.dist[lo:hi]...)
		meanRx = append(meanRx, x.meanRx[lo:hi]...)
		byID = append(byID, x.byID[lo:hi]...)
	}
	x.start = start
	x.ids, x.dist, x.meanRx, x.byID = ids, dist, meanRx, byID
}

// packedIn reports whether the rows already sit back to back in the given
// device order, from the start of the packed arrays.
func (x *LinkIndex) packedIn(order []int32) bool {
	at := 0
	for _, dev := range order {
		if x.start[dev] != at {
			return false
		}
		at += x.deg[dev]
	}
	return true
}

// Clone returns a deep copy of the index in its current row order. A clone
// and its original share nothing, so one can be Reordered (a physical repack)
// while the other keeps serving lookups — the property the per-env geometry
// memoization relies on: the canonical build is cached once and every env
// gets a private clone for the price of five memcpys instead of a grid pass
// plus a log10 per candidate pair.
func (x *LinkIndex) Clone() *LinkIndex {
	if x == nil {
		return nil
	}
	return &LinkIndex{
		start:  append([]int(nil), x.start...),
		deg:    append([]int(nil), x.deg...),
		ids:    append([]int32(nil), x.ids...),
		dist:   append([]units.Metre(nil), x.dist...),
		meanRx: append([]units.DBm(nil), x.meanRx...),
		byID:   append([]int32(nil), x.byID...),
	}
}

// Row returns device i's packed candidate row: neighbour ids in the grid's
// traversal order (the channel-draw order), with the distance and mean
// received power at matching positions. The slices alias the index — read
// only.
func (x *LinkIndex) Row(i int) (ids []int32, dist []units.Metre, meanRx []units.DBm) {
	lo, hi := x.start[i], x.start[i]+x.deg[i]
	return x.ids[lo:hi], x.dist[lo:hi], x.meanRx[lo:hi]
}

// Lookup returns the cached distance and mean received power for the
// ordered pair (from, to), or ok=false when to is not one of from's
// candidates (beyond the candidate radius). O(log degree) via the per-row
// by-id permutation.
func (x *LinkIndex) Lookup(from, to int) (d units.Metre, meanRx units.DBm, ok bool) {
	lo, hi := x.start[from], x.start[from]+x.deg[from]
	perm := x.byID[lo:hi]
	ids := x.ids[lo:hi]
	t := int32(to)
	i, j := 0, len(perm)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ids[perm[m]] < t {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < len(perm) && ids[perm[i]] == t {
		p := lo + int(perm[i])
		return x.dist[p], x.meanRx[p], true
	}
	return 0, 0, false
}

// Pairs returns the number of directed candidate pairs the index holds —
// the Σ degree its memory is proportional to.
func (x *LinkIndex) Pairs() int { return len(x.ids) }
