package geo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		ax, ay = math.Mod(ax, 1e6), math.Mod(ay, 1e6)
		bx, by = math.Mod(bx, 1e6), math.Mod(by, 1e6)
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a) && a.Dist(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		norm := func(v float64) float64 { return math.Mod(v, 1000) }
		a := Point{norm(ax), norm(ay)}
		b := Point{norm(bx), norm(by)}
		c := Point{norm(cx), norm(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if v.Len() != 5 {
		t.Errorf("Len = %v", v.Len())
	}
	u := v.Unit()
	if math.Abs(u.Len()-1) > 1e-12 {
		t.Errorf("Unit length = %v", u.Len())
	}
	if (Vec{}).Unit() != (Vec{}) {
		t.Error("zero vector Unit should be zero")
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Add(Vec{1, 1}); got != (Vec{4, 5}) {
		t.Errorf("Add = %v", got)
	}
	p := Point{1, 1}.Add(Vec{2, 3})
	if p != (Point{3, 4}) {
		t.Errorf("Point.Add = %v", p)
	}
	if d := (Point{3, 4}).Sub(Point{1, 1}); d != (Vec{2, 3}) {
		t.Errorf("Point.Sub = %v", d)
	}
}

func TestRect(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 || r.Area() != 10000 {
		t.Errorf("Square(100) = %+v", r)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 100}) {
		t.Error("boundary should be contained")
	}
	if r.Contains(Point{-0.01, 50}) {
		t.Error("outside point contained")
	}
	if got := r.Clamp(Point{150, -10}); got != (Point{100, 0}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Center(); got != (Point{50, 50}) {
		t.Errorf("Center = %v", got)
	}
}

func TestUniformDeployment(t *testing.T) {
	src := xrand.NewStream(1)
	r := Square(100)
	pts := UniformDeployment(500, r, src)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("point %v outside deployment area", p)
		}
	}
	// Spread check: mean should be near the centre.
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	if math.Abs(sx/500-50) > 5 || math.Abs(sy/500-50) > 5 {
		t.Errorf("deployment mean (%v,%v) far from centre", sx/500, sy/500)
	}
}

func TestScaledSquareKeepsDensity(t *testing.T) {
	base := ScaledSquare(50, 50, 100)
	if base.Width() != 100 {
		t.Errorf("base side = %v, want 100", base.Width())
	}
	big := ScaledSquare(200, 50, 100)
	wantSide := 200.0 // sqrt(200/50)*100 = 2*100
	if math.Abs(big.Width()-wantSide) > 1e-9 {
		t.Errorf("side for n=200: %v, want %v", big.Width(), wantSide)
	}
	// Density = n / area is constant.
	d1 := 50 / base.Area()
	d2 := 200 / big.Area()
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("density changed: %v vs %v", d1, d2)
	}
	// Degenerate inputs fall back to the base square.
	if ScaledSquare(0, 50, 100).Width() != 100 {
		t.Error("n=0 should fall back to base side")
	}
}

func TestGridNeighborsMatchesBruteForce(t *testing.T) {
	src := xrand.NewStream(4)
	pts := UniformDeployment(300, Square(100), src)
	g := NewGrid(pts, 10)
	radius := 17.0
	for qi := 0; qi < 50; qi++ {
		i := src.Intn(len(pts))
		got := g.Neighbors(pts[i], radius, i, nil)
		want := map[int]bool{}
		for j, p := range pts {
			if j != i && pts[i].Dist(p) <= radius {
				want[j] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d neighbours, want %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("query %d: unexpected neighbour %d", i, j)
			}
		}
	}
}

func TestGridEmptyAndSelf(t *testing.T) {
	g := NewGrid(nil, 10)
	if got := g.Neighbors(Point{0, 0}, 5, -1, nil); len(got) != 0 {
		t.Errorf("empty grid returned %v", got)
	}
	if g.Len() != 0 {
		t.Error("empty grid Len != 0")
	}
	pts := []Point{{0, 0}, {1, 0}}
	g2 := NewGrid(pts, 10)
	got := g2.Neighbors(pts[0], 5, 0, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("self-exclusion failed: %v", got)
	}
	all := g2.Neighbors(pts[0], 5, -1, nil)
	if len(all) != 2 {
		t.Errorf("self=-1 should keep all: %v", all)
	}
}

func TestGridZeroCellSizeCoerced(t *testing.T) {
	pts := []Point{{0, 0}, {3, 4}}
	g := NewGrid(pts, 0) // must not panic or divide by zero
	got := g.Neighbors(Point{0, 0}, 10, -1, nil)
	if len(got) != 2 {
		t.Errorf("got %v", got)
	}
}

func TestGridCellEnumeration(t *testing.T) {
	src := xrand.NewStream(8)
	pts := UniformDeployment(200, Square(100), src)
	g := NewGrid(pts, 12)
	cols, rows := g.Cells()
	if cols < 1 || rows < 1 {
		t.Fatalf("Cells = (%d, %d)", cols, rows)
	}
	seen := make([]bool, len(pts))
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			prev := -1
			for _, i := range g.CellPoints(cx, cy) {
				if seen[i] {
					t.Fatalf("point %d in two cells", i)
				}
				seen[i] = true
				if i <= prev {
					t.Fatalf("cell (%d,%d) not in ascending index order", cx, cy)
				}
				prev = i
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d in no cell", i)
		}
	}
}

func TestGridReusesDst(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}}
	g := NewGrid(pts, 5)
	buf := make([]int, 0, 8)
	out := g.Neighbors(Point{0, 0}, 10, -1, buf)
	if cap(out) != cap(buf) {
		t.Error("Neighbors should append into dst without reallocating when capacity suffices")
	}
}
