package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// stepSource counts math/rand source steps the way Stream.Pos does: Int63
// and Uint64 each advance the register by one step.
type stepSource struct {
	src rand.Source64
	n   uint64
}

func (c *stepSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *stepSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *stepSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// reference returns math/rand seeded with seed and its step counter.
func reference(seed int64) (*rand.Rand, *stepSource) {
	src := &stepSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// edgeSeeds are the seeds Seed reduces specially: zero (replaced by a fixed
// value), negatives (shifted by 2³¹−1), multiples of 2³¹−1 (reducing to
// zero), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max - 1,
	2 * int32max, -2 * int32max, 1 << 31, -1 << 31, 1 << 62,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// TestSeedMatchesMathRand pins the jump-ahead Seed to math/rand's serial
// chain: for every edge seed and thousands of spread ones, the first
// rngLen steps — the whole register, each word read back once — are
// math/rand's.
func TestSeedMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	count := 29000
	if testing.Short() {
		count = 2000
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < count; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		var got rngSource
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d step %d: %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestMulMod31 checks the folded product against big-enough integer
// arithmetic at the edges of its domain.
func TestMulMod31(t *testing.T) {
	vals := []uint64{0, 1, 2, 48271, int32max - 1, int32max, 1 << 30, 1<<31 - 2}
	for _, a := range vals {
		for _, b := range vals {
			if a > int32max-1 || b > int32max-1 {
				continue
			}
			if got, want := mulMod31(a, b), a*b%int32max; got != want {
				t.Errorf("mulMod31(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestStreamMatchesMathRand is the generator's differential check: over
// many seeds, every ported method draws math/rand's values and advances
// Pos by math/rand's source steps.
func TestStreamMatchesMathRand(t *testing.T) {
	intns := []int{1, 2, 3, 7, 64, 97, 1 << 20, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, math.MaxInt64}
	methods := []struct {
		name string
		draw func(s *Stream, r *rand.Rand) (float64, float64)
	}{
		{"float64", func(s *Stream, r *rand.Rand) (float64, float64) { return s.Float64(), r.Float64() }},
		{"int63", func(s *Stream, r *rand.Rand) (float64, float64) { return float64(s.Int63()), float64(r.Int63()) }},
		{"norm", func(s *Stream, r *rand.Rand) (float64, float64) { return s.Norm(), r.NormFloat64() }},
		{"exp", func(s *Stream, r *rand.Rand) (float64, float64) { return s.Exp(1), r.ExpFloat64() }},
		{"intn", func(s *Stream, r *rand.Rand) (float64, float64) {
			n := intns[s.Pos()%uint64(len(intns))]
			return float64(s.Intn(n)), float64(r.Intn(n))
		}},
		{"int31n", func(s *Stream, r *rand.Rand) (float64, float64) {
			n := int32(intns[s.Pos()%9])
			return float64(s.src.Int31n(n)), float64(r.Int31n(n))
		}},
		{"int63n", func(s *Stream, r *rand.Rand) (float64, float64) {
			n := int64(intns[s.Pos()%uint64(len(intns))])
			return float64(s.src.Int63n(n)), float64(r.Int63n(n))
		}},
		{"perm", func(s *Stream, r *rand.Rand) (float64, float64) {
			n := int(s.Pos() % 50)
			a, b := s.Perm(n), r.Perm(n)
			for i := range a {
				if a[i] != b[i] {
					return float64(i), -1
				}
			}
			return 0, 0
		}},
	}
	seeds := append([]int64(nil), edgeSeeds...)
	for i := int64(0); i < 40; i++ {
		seeds = append(seeds, deriveSeed(i, "pulse-7"))
	}
	draws := 3000
	if testing.Short() {
		draws = 300
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			for _, seed := range seeds {
				s := NewStream(seed)
				r, ref := reference(seed)
				for i := 0; i < draws; i++ {
					if g, w := m.draw(s, r); g != w {
						t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, i, g, w)
					}
					if s.Pos() != ref.n {
						t.Fatalf("seed %d draw %d: Pos %d, math/rand took %d steps", seed, i, s.Pos(), ref.n)
					}
				}
			}
		})
	}
}

// TestNormTailMatchesMathRand drives NormFloat64 until its base-strip tail
// (|x| > rn, drawn with two logarithms per try) and its wedge rejections
// have both run many times, checking every value and cursor on the way.
func TestNormTailMatchesMathRand(t *testing.T) {
	s := NewStream(5)
	r, ref := reference(5)
	tails, rejects := 0, 0
	for i := 0; tails < 50 || rejects < 50; i++ {
		before := ref.n
		g, w := s.Norm(), r.NormFloat64()
		if g != w {
			t.Fatalf("draw %d: %v, math/rand %v", i, g, w)
		}
		if s.Pos() != ref.n {
			t.Fatalf("draw %d: Pos %d, math/rand took %d steps", i, s.Pos(), ref.n)
		}
		if math.Abs(g) > rn {
			tails++
		} else if ref.n-before > 2 {
			rejects++
		}
	}
}

// TestSeekSkipsSteps pins Seek against plain stepping: a stream sought to
// pos is where a fresh one is after pos math/rand steps.
func TestSeekSkipsSteps(t *testing.T) {
	for _, pos := range []uint64{0, 1, rngLen - 1, rngLen, rngLen + 1, 100000} {
		s := NewStream(-3)
		s.Float64()
		s.Seek(pos)
		ref := rand.NewSource(-3).(rand.Source64)
		for i := uint64(0); i < pos; i++ {
			ref.Uint64()
		}
		if s.Pos() != pos {
			t.Fatalf("Seek(%d): Pos %d", pos, s.Pos())
		}
		for i := 0; i < 10; i++ {
			if g, w := s.Int63(), ref.Int63(); g != w {
				t.Fatalf("Seek(%d) draw %d: %d, math/rand %d", pos, i, g, w)
			}
		}
	}
}

// TestDeriveSeedIsFNV1a pins the inlined hash to hash/fnv's FNV-1a over the
// root seed's little-endian bytes and the name.
func TestDeriveSeedIsFNV1a(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64} {
		for _, name := range []string{"", "fading", "pulse-4999"} {
			h := fnv.New64a()
			var b [8]byte
			for i := range b {
				b[i] = byte(seed >> (8 * i))
			}
			h.Write(b[:])
			h.Write([]byte(name))
			want := int64(h.Sum64())
			if want == 0 {
				want = 1
			}
			if got := deriveSeed(seed, name); got != want {
				t.Errorf("deriveSeed(%d, %q) = %d, want %d", seed, name, got, want)
			}
		}
	}
}

// BenchmarkStreamNormFloat64Pair measures the pair of draws every channel
// sample takes: one Gaussian (shadowing) and one uniform (fading).
func BenchmarkStreamNormFloat64Pair(b *testing.B) {
	s := NewStream(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Norm() + s.Float64()
	}
	_ = sink
}

// BenchmarkStreamSeek measures a checkpoint restore's replay: a re-seed
// plus 10⁶ skipped steps.
func BenchmarkStreamSeek(b *testing.B) {
	s := NewStream(1)
	for i := 0; i < b.N; i++ {
		s.Seek(0)
		s.Seek(1e6)
	}
}

// streamSink keeps BenchmarkNewStream's streams on the heap, as Streams.Get
// keeps them.
var streamSink *Stream

// BenchmarkNewStream measures creating and seeding one stream.
func BenchmarkNewStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		streamSink = NewStream(int64(i))
	}
}
