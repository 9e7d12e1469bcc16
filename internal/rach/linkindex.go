package rach

import (
	"fmt"
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
// broadcast walks three flat arrays linearly. An entry is a position in
// them: entry e of row i is the ordered pair (i, Peer(e)). Memory is
// O(Σ degree) — one id (int32), one distance, one mean power, one by-id
// entry and one mirror entry per directed candidate pair.
//
// The index is immutable once built: positions never move within a run, so
// one build serves every environment of a deployment, and core's
// GeometryCache hands the same pointer to all of them for concurrent
// read-only use. Per-env state kept per entry (core's neighbour tables)
// stays aligned with the rows.
//
// Row order is a contract, not a convenience: the packed ids preserve the
// grid's cell-scan traversal order exactly, because a sender's channel draws
// are consumed in candidate iteration order — reordering the row would
// reassign shadowing/fading draws across links and change every downstream
// result. Golden tests pin that order. The by-id view that point lookups and
// peer-id-order walks need is a per-row list of entries (byID) instead.
//
// Rows are symmetric — the grid's radius test compares Dist2, which is
// symmetric — so every entry (i→j) has a mirror (j→i) in row j (rev).
type LinkIndex struct {
	off    []int
	ids    []int32
	dist   []units.Metre
	meanRx []units.DBm
	byID   []int32 // per row, its entries by ascending peer id
	rev    []int32 // per entry, its mirror: rev[rev[e]] == e
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
	x.transpose()
	return x
}

// transpose fills byID and rev in O(pairs), with no sort and no search.
// Rows are symmetric, so appending every entry (i→j), for i in id order, to
// the slots of row j lists row j's peers in ascending id — each slot then
// holding the mirror of row j's entry for that peer, which a scatter of
// row j's entries by peer finds.
func (x *LinkIndex) transpose() {
	n := len(x.off) - 1
	x.byID = make([]int32, len(x.ids))
	x.rev = make([]int32, len(x.ids))
	owner := make([]int32, len(x.ids)) // per slot, the row its entry is in
	fill := make([]int, n)
	for i := 0; i < n; i++ {
		for e := x.off[i]; e < x.off[i+1]; e++ {
			j := x.ids[e]
			k := x.off[j] + fill[j]
			if k >= x.off[j+1] {
				panic(fmt.Sprintf("rach: link index rows %d and %d are not symmetric", i, j))
			}
			fill[j]++
			x.byID[k], owner[k] = int32(e), int32(i)
		}
	}
	at := make([]int32, n) // row j's entry for each of its peers
	for j := 0; j < n; j++ {
		lo, hi := x.off[j], x.off[j+1]
		for e := lo; e < hi; e++ {
			at[x.ids[e]] = int32(e)
		}
		for k := lo; k < hi; k++ {
			e := at[owner[k]]
			if int(e) < lo || int(e) >= hi || x.ids[e] != owner[k] {
				panic(fmt.Sprintf("rach: link index rows %d and %d are not symmetric", owner[k], j))
			}
			x.byID[k], x.rev[e] = e, x.byID[k]
		}
	}
}

// Row returns device i's candidate row: neighbour ids in the grid's
// traversal order (the channel-draw order), with the distance and mean
// received power at matching positions. The slices alias the index — read
// only.
func (x *LinkIndex) Row(i int) (ids []int32, dist []units.Metre, meanRx []units.DBm) {
	lo, hi := x.off[i], x.off[i+1]
	return x.ids[lo:hi], x.dist[lo:hi], x.meanRx[lo:hi]
}

// Entry returns the entry of row from that names to, or ok=false when to is
// not one of from's candidates (beyond the candidate radius): a binary
// search of the row's by-id list.
func (x *LinkIndex) Entry(from, to int) (e int, ok bool) {
	perm := x.ByID(from)
	k := sort.Search(len(perm), func(k int) bool { return x.ids[perm[k]] >= int32(to) })
	if k < len(perm) && x.ids[perm[k]] == int32(to) {
		return int(perm[k]), true
	}
	return 0, false
}

// EntryOf returns the entry of d's receiver row that names its sender: one
// mirror read for a delivery the transport resolved over this index, Entry's
// search for any other (the direct-geometry path, a flight rebuilt from a
// checkpoint).
func (x *LinkIndex) EntryOf(d *Delivery) (e int, ok bool) {
	if d.link > 0 {
		return int(x.rev[d.link-1]), true
	}
	return x.Entry(d.To, d.Msg.From)
}

// ByID returns row i's entries in ascending peer-id order (read only).
func (x *LinkIndex) ByID(i int) []int32 { return x.byID[x.off[i]:x.off[i+1]] }

// Peer returns the device entry e names.
func (x *LinkIndex) Peer(e int) int { return int(x.ids[e]) }

// Mirror returns the reverse pair's entry: (j→i) for e = (i→j).
func (x *LinkIndex) Mirror(e int) int { return int(x.rev[e]) }

// Pairs returns the number of directed candidate pairs the index holds —
// the Σ degree its memory is proportional to.
func (x *LinkIndex) Pairs() int { return len(x.ids) }
