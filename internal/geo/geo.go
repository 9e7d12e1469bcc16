// Package geo provides the 2-D geometry the deployment and mobility layers
// are built on: points and vectors, rectangles, and a uniform grid spatial
// index for fast fixed-radius neighbour queries over thousands of devices.
//
// # Why the uniform grid is the only spatial index
//
// The transport's link-geometry cache (internal/rach.LinkIndex) performs one
// fixed-radius pass over every device at construction time; a balanced
// kd-tree used to live alongside the grid as the alternative for that pass.
// BenchmarkIndexBuild measured the build-plus-full-query workload at the
// paper's density (50 devices per 100 m × 100 m, candidate radius ≈ 282 m):
// the grid won at n=200 (0.29 ms vs 0.42 ms) and n=1000 (8.3 ms vs 9.7 ms),
// and lost only at n=5000 (104 ms vs 78 ms) where cell size ≈ deployment
// side degenerates the 3×3 scan toward a full sweep. The build is one-shot
// and amortized over the run's every slot, so tens of milliseconds are
// noise either way; what is decisive is that the grid's cell-scan traversal
// order is the candidate order the transport's RNG draw sequence — and
// therefore every golden result — is pinned to. The kd-tree could never be
// wired in without changing that order, so it was deleted rather than kept
// as dead code (it survives in git history should clustered deployments
// ever need it back).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the 2-D deployment plane, in metres.
type Point struct {
	X, Y float64
}

// Vec is a displacement in metres.
type Vec struct {
	X, Y float64
}

// Add returns p displaced by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the displacement from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance (cheaper, for comparisons).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Add returns the vector sum v+w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Unit returns the unit vector in v's direction; the zero vector maps to
// itself.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return Vec{v.X / l, v.Y / l}
}

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the side-by-side deployment square the paper uses
// (100 m x 100 m at the baseline density), anchored at the origin.
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Width returns the rectangle's X extent.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the rectangle's Y extent.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the rectangle's area in square metres.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// uniformSource is the subset of an xrand.Stream UniformDeployment needs;
// declared locally so geo does not import xrand.
type uniformSource interface {
	Uniform(lo, hi float64) float64
}

// UniformDeployment places n points independently and uniformly in r — the
// deployment model behind Table I's "50 devices in 100 m x 100 m areas".
func UniformDeployment(n int, r Rect, src uniformSource) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{src.Uniform(r.MinX, r.MaxX), src.Uniform(r.MinY, r.MaxY)}
	}
	return pts
}

// ScaledSquare returns the square that keeps the paper's device density
// (baseN devices per baseSide x baseSide) when deploying n devices: the area
// grows linearly with n. Fig. 3/4 sweep node counts at constant density.
func ScaledSquare(n, baseN int, baseSide float64) Rect {
	if n <= 0 || baseN <= 0 {
		return Square(baseSide)
	}
	side := baseSide * math.Sqrt(float64(n)/float64(baseN))
	return Square(side)
}

// Grid is a uniform-cell spatial index over a fixed point set. Build it once
// per deployment; Neighbors answers fixed-radius queries in O(points in the
// 3x3 cell neighbourhood) instead of O(n).
type Grid struct {
	cell   float64
	minX   float64
	minY   float64
	cols   int
	rows   int
	pts    []Point
	bucket map[int][]int
}

// NewGrid indexes pts with the given cell size. Cell size should be at least
// the typical query radius for best performance; any positive value is
// correct.
func NewGrid(pts []Point, cell float64) *Grid {
	if cell <= 0 {
		cell = 1
	}
	g := &Grid{cell: cell, pts: pts, bucket: make(map[int][]int)}
	if len(pts) == 0 {
		g.cols, g.rows = 1, 1
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	for i, p := range pts {
		k := g.key(p)
		g.bucket[k] = append(g.bucket[k], i)
	}
	return g
}

// Cells returns the grid's column and row counts. Cell (cx, cy) covers
// [minX+cx·cell, minX+(cx+1)·cell) × [minY+cy·cell, minY+(cy+1)·cell), with
// boundary points clamped into the last column/row.
func (g *Grid) Cells() (cols, rows int) { return g.cols, g.rows }

// CellPoints returns the indices of the points in cell (cx, cy), in
// insertion order — ascending index when NewGrid received points in index
// order. The returned slice aliases the grid's bucket; callers must not
// mutate it. Empty cells return nil.
func (g *Grid) CellPoints(cx, cy int) []int {
	return g.bucket[cy*g.cols+cx]
}

func (g *Grid) key(p Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Neighbors appends to dst the indices of all indexed points within radius of
// p, excluding the point with index self (pass -1 to keep all), and returns
// the extended slice. A negative radius yields no neighbours.
func (g *Grid) Neighbors(p Point, radius float64, self int, dst []int) []int {
	if len(g.pts) == 0 || radius < 0 {
		return dst
	}
	r2 := radius * radius
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	span := int(radius/g.cell) + 1
	for dy := -span; dy <= span; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -span; dx <= span; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			for _, i := range g.bucket[y*g.cols+x] {
				if i == self {
					continue
				}
				if g.pts[i].Dist2(p) <= r2 {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

// IDDist pairs a neighbour's point index with its Euclidean distance from
// the query point.
type IDDist struct {
	ID   int
	Dist float64
}

// NeighborsWithDist is Neighbors extended with each accepted candidate's
// metric distance, so callers that need the distance (link budgets, index
// builds) don't immediately re-derive the pair geometry the radius test
// already measured. The acceptance test is Dist2-based — rejected candidates
// never cost a square root — and the reported distance is computed with the
// same math.Hypot rounding as Point.Dist, so consumers are bit-compatible
// with code that called Dist itself. Results appear in the same cell-scan
// order as Neighbors; a negative radius yields no neighbours.
func (g *Grid) NeighborsWithDist(p Point, radius float64, self int, dst []IDDist) []IDDist {
	if len(g.pts) == 0 || radius < 0 {
		return dst
	}
	r2 := radius * radius
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	span := int(radius/g.cell) + 1
	for dy := -span; dy <= span; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -span; dx <= span; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			for _, i := range g.bucket[y*g.cols+x] {
				if i == self {
					continue
				}
				if g.pts[i].Dist2(p) <= r2 {
					dst = append(dst, IDDist{ID: i, Dist: g.pts[i].Dist(p)})
				}
			}
		}
	}
	return dst
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }
