package core

import (
	"math"
	"sort"

	"repro/internal/geo"
)

// shardFloorDevices is the average devices-per-shard a run is cut into:
// below it the per-shard scheduling overhead (min scans, boundary merges)
// eats what skipping idle shards saves, so runs under 2·shardFloorDevices
// devices get a single shard.
const shardFloorDevices = 256

// autoShardCount derives the spatial shard count from the device count and
// the resolved worker count: one shard per shardFloorDevices devices, at
// least one, clamped to 8 shards per worker — enough slack for work
// stealing across uneven cells without fragmenting the SoA arrays.
func autoShardCount(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	s := n / shardFloorDevices
	if s < 1 {
		return 1
	}
	if max := 8 * workers; s > max {
		s = max
	}
	return s
}

// shardMap is a spatial partition of device ids into contiguous shards of a
// shard-major roster ordering. Shards are built from grid cells (a device's
// radio neighborhood is a few cells wide, so most pulse deliveries stay
// shard-local) and each shard's member list is sorted by device id, which
// makes within-shard iteration id-ascending — the property the engine's
// merge steps rely on to reproduce the sequential fired-list order.
type shardMap struct {
	count    int
	order    []int32 // member index -> device id, shard-major
	off      []int32 // shard s owns members order[off[s]:off[s+1]]
	shardOf  []int32 // device id -> shard
	memberOf []int32 // device id -> member index
}

// newShardMap partitions n devices at the given positions into the given
// number of shards (clamped to [1, n]). It builds its own grid over the
// deployment with cells sized so there are about 4 cells per shard —
// independent of the transport grid, whose radio-range cells are too coarse
// to split — then walks cells in row-major order, cutting a new shard
// whenever the running count reaches the ideal share. Cells never split
// across shards, so shard boundaries align with cell boundaries and the
// cross-shard delivery fraction stays small.
func newShardMap(positions []geo.Point, shards int) *shardMap {
	n := len(positions)
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	// Cell side for ~4 cells per shard, from the deployment bounding box.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range positions {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	area := (maxX - minX) * (maxY - minY)
	cell := math.Sqrt(area / float64(4*shards))
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1 // degenerate deployments (all devices co-located)
	}
	grid := geo.NewGrid(positions, cell)

	m := &shardMap{
		count:    shards,
		order:    make([]int32, 0, n),
		off:      make([]int32, 1, shards+1),
		shardOf:  make([]int32, n),
		memberOf: make([]int32, n),
	}
	cols, rows := grid.Cells()
	ideal := float64(n) / float64(shards)
	placed := 0
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			pts := grid.CellPoints(cx, cy)
			if len(pts) == 0 {
				continue
			}
			// Cut before this cell once the cumulative count reaches the
			// cumulative ideal share, provided another shard may open and
			// the devices left can keep every remaining shard non-empty.
			closed := len(m.off) - 1
			if placed > 0 && float64(placed) >= ideal*float64(closed+1) &&
				closed+1 < shards && n-placed >= shards-closed-1 {
				m.closeShard()
			}
			for _, p := range pts {
				m.order = append(m.order, int32(p))
			}
			placed += len(pts)
		}
	}
	m.closeShard()
	// Degenerate spatial distributions (everything in one cell) can leave
	// fewer shards than asked for; shrink count to the real partition.
	m.count = len(m.off) - 1

	// Sort each shard's members by device id: grid buckets are already
	// id-ascending, but concatenating cells interleaves ranges.
	for s := 0; s < m.count; s++ {
		seg := m.order[m.off[s]:m.off[s+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	for mi, id := range m.order {
		m.memberOf[id] = int32(mi)
	}
	for s := 0; s < m.count; s++ {
		for _, id := range m.order[m.off[s]:m.off[s+1]] {
			m.shardOf[id] = int32(s)
		}
	}
	return m
}

// closeShard seals the current shard at the present roster length.
func (m *shardMap) closeShard() {
	if int(m.off[len(m.off)-1]) < len(m.order) {
		m.off = append(m.off, int32(len(m.order)))
	}
}

// span returns shard s's member index range [lo, hi).
func (m *shardMap) span(s int) (lo, hi int) {
	return int(m.off[s]), int(m.off[s+1])
}
