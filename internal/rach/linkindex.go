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
// Layout is plain CSR for cache locality: device i's row is
// off[i]..off[i+1] of three packed arrays, rows in device-id order, so a
// broadcast walks three flat arrays linearly. Memory is O(Σ degree) — one id
// (int32), one distance, one mean power and one lookup-permutation entry per
// directed candidate pair.
//
// The index is immutable once built: positions never move within a run, so
// one build serves every environment of a deployment, and core's
// GeometryCache hands the same pointer to all of them for concurrent
// read-only use.
//
// Row order is a contract, not a convenience: the packed ids preserve the
// grid's cell-scan traversal order exactly, because a sender's channel draws
// are consumed in candidate iteration order — reordering the row would
// reassign shadowing/fading draws across links and change every downstream
// result. Golden tests pin that order. The by-id sorted view needed for point
// lookups (LinkGeometry, MeanRSSI, GHS link queries) is carried as a per-row
// permutation (byID) instead of reordering the rows themselves.
type LinkIndex struct {
	off    []int
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
	x := &LinkIndex{off: make([]int, n+1)}
	var row []geo.IDDist
	for i := 0; i < n; i++ {
		row = grid.NeighborsWithDist(pts[i], radius, i, row[:0])
		for _, c := range row {
			d := units.Metre(c.Dist)
			x.ids = append(x.ids, int32(c.ID))
			x.dist = append(x.dist, d)
			x.meanRx = append(x.meanRx, ch.MeanReceivedPower(txPower, d))
		}
		x.off[i+1] = len(x.ids)
	}
	x.byID = make([]int32, len(x.ids))
	for i := 0; i < n; i++ {
		x.sortRowByID(i)
	}
	return x
}

// sortRowByID rebuilds row i's ascending-id lookup permutation.
func (x *LinkIndex) sortRowByID(i int) {
	lo, hi := x.off[i], x.off[i+1]
	perm := x.byID[lo:hi]
	for p := range perm {
		perm[p] = int32(p)
	}
	ids := x.ids[lo:hi]
	sort.Slice(perm, func(a, b int) bool { return ids[perm[a]] < ids[perm[b]] })
}

// Row returns device i's candidate row: neighbour ids in the grid's
// traversal order (the channel-draw order), with the distance and mean
// received power at matching positions. The slices alias the index — read
// only.
func (x *LinkIndex) Row(i int) (ids []int32, dist []units.Metre, meanRx []units.DBm) {
	lo, hi := x.off[i], x.off[i+1]
	return x.ids[lo:hi], x.dist[lo:hi], x.meanRx[lo:hi]
}

// Lookup returns the cached distance and mean received power for the
// ordered pair (from, to), or ok=false when to is not one of from's
// candidates (beyond the candidate radius). O(log degree) via the per-row
// by-id permutation.
func (x *LinkIndex) Lookup(from, to int) (d units.Metre, meanRx units.DBm, ok bool) {
	lo, hi := x.off[from], x.off[from+1]
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
