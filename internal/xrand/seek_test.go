package xrand

import (
	"math/rand"
	"testing"
)

// drawKinds exercises every variate method so a cursor round-trip covers all
// source-consumption patterns (single-step Float64, multi-step Norm/Exp
// rejection loops, Perm batches).
var drawKinds = []struct {
	name string
	draw func(s *Stream) float64
}{
	{"float64", func(s *Stream) float64 { return s.Float64() }},
	{"intn", func(s *Stream) float64 { return float64(s.Intn(97)) }},
	{"int63", func(s *Stream) float64 { return float64(s.Int63()) }},
	{"uniform", func(s *Stream) float64 { return s.Uniform(-2, 9) }},
	{"norm", func(s *Stream) float64 { return s.Norm() }},
	{"gaussian", func(s *Stream) float64 { return s.Gaussian(1, 2) }},
	{"lognormaldb", func(s *Stream) float64 { return s.LogNormalDB(8) }},
	{"rayleighpowerdb", func(s *Stream) float64 { return s.RayleighPowerDB() }},
	{"rayleighuniform", func(s *Stream) float64 { return s.RayleighUniform() }},
	{"exp", func(s *Stream) float64 { return s.Exp(0.7) }},
	{"perm", func(s *Stream) float64 { return float64(s.Perm(13)[5]) }},
}

// TestCountingSourceTransparent pins that the generator's step counter does
// not change the draw sequence: a stream must replay math/rand verbatim.
func TestCountingSourceTransparent(t *testing.T) {
	s := NewStream(42)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		if got, want := s.Float64(), r.Float64(); got != want {
			t.Fatalf("draw %d: stream %v, math/rand %v", i, got, want)
		}
	}
	s2 := NewStream(43)
	r2 := rand.New(rand.NewSource(43))
	for i := 0; i < 200; i++ {
		if got, want := s2.Norm(), r2.NormFloat64(); got != want {
			t.Fatalf("norm draw %d: stream %v, math/rand %v", i, got, want)
		}
	}
}

// TestSeekRoundTrip is the issue's contract: draw k, snapshot Pos, draw m,
// Seek back, and the next m draws must repeat exactly — for every variate.
func TestSeekRoundTrip(t *testing.T) {
	for _, kind := range drawKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := NewStream(1234)
			const k, m = 37, 53
			for i := 0; i < k; i++ {
				kind.draw(s)
			}
			pos := s.Pos()
			want := make([]float64, m)
			for i := range want {
				want[i] = kind.draw(s)
			}
			s.Seek(pos)
			if s.Pos() != pos {
				t.Fatalf("Pos after Seek = %d, want %d", s.Pos(), pos)
			}
			for i := 0; i < m; i++ {
				if got := kind.draw(s); got != want[i] {
					t.Fatalf("replayed draw %d = %v, want %v", i, got, want[i])
				}
			}
		})
	}
}

// TestSeekIntoFreshStream checks positions are absolute: a brand-new stream
// with the same seed Seek'd to pos continues identically to the original.
func TestSeekIntoFreshStream(t *testing.T) {
	a := NewStream(777)
	for i := 0; i < 100; i++ {
		a.Norm()
	}
	pos := a.Pos()
	b := NewStream(777)
	b.Seek(pos)
	for i := 0; i < 100; i++ {
		if x, y := a.Norm(), b.Norm(); x != y {
			t.Fatalf("draw %d after absolute Seek diverged: %v vs %v", i, x, y)
		}
	}
}

func TestPosAdvances(t *testing.T) {
	s := NewStream(5)
	if s.Pos() != 0 {
		t.Fatalf("fresh stream Pos = %d, want 0", s.Pos())
	}
	s.Float64()
	if s.Pos() == 0 {
		t.Fatal("Pos did not advance after a draw")
	}
}

func TestStreamsCursorsRestore(t *testing.T) {
	f := NewStreams(99)
	a := f.Get("alpha")
	b := f.Get("beta")
	for i := 0; i < 10; i++ {
		a.Float64()
	}
	for i := 0; i < 25; i++ {
		b.Norm()
	}
	cur := f.Cursors()
	if len(cur) != 2 || cur[0].Name != "alpha" || cur[1].Name != "beta" {
		t.Fatalf("Cursors = %+v, want sorted [alpha beta]", cur)
	}
	want := make([]float64, 40)
	for i := range want {
		want[i] = a.Float64() + b.Float64()
	}

	// Restore into a fresh factory (the resume path) — streams must be
	// created on demand and continue identically.
	g := NewStreams(99)
	g.Get("alpha").Float64() // pre-advance to prove Restore is absolute
	g.Restore(cur)
	ga, gb := g.Get("alpha"), g.Get("beta")
	for i := range want {
		if got := ga.Float64() + gb.Float64(); got != want[i] {
			t.Fatalf("restored draw %d = %v, want %v", i, got, want[i])
		}
	}
}
