// Package xrand provides deterministic, independently seeded random number
// streams for the simulator, plus the non-uniform variates the channel and
// mobility models need (Gaussian, log-normal, Rayleigh power, exponential).
//
// Every stochastic component of the simulator draws from a named Stream
// obtained from a Streams factory. Streams derived from the same root seed
// and name sequence are bit-identical across runs, which makes every
// experiment reproducible from (seed, parameters) alone — the property the
// Vienna LTE simulator line of work calls "enabling reproducibility".
package xrand

import (
	"math"
	"sort"
	"sync"
)

// Stream is a deterministic pseudo-random stream: math/rand's generator and
// algorithms (rng.go, normal.go, exp.go here) called directly, with the
// distributions the simulator needs. Every draw is bit-identical to the
// same draw from rand.New(rand.NewSource(seed)). A Stream is not safe for
// concurrent use; give each goroutine its own named stream.
type Stream struct {
	src  rngSource
	seed int64
}

// NewStream returns a stream seeded directly with seed.
func NewStream(seed int64) *Stream {
	s := &Stream{seed: seed}
	s.src.Seed(seed)
	return s
}

// Pos returns the stream's cursor: the number of low-level source steps
// consumed so far. Together with the seed it fully determines the stream's
// future output, so a snapshot needs only (seed, Pos).
func (s *Stream) Pos() uint64 { return s.src.n }

// Seek repositions the stream to the absolute cursor pos, counted from the
// seed, by stepping the source there: forward from the current cursor when
// pos is ahead of it, else from a re-seed. After Seek(Pos()) the stream
// continues exactly as if nothing happened; after Seek(p) with p < Pos() it
// replays history.
func (s *Stream) Seek(pos uint64) {
	if pos < s.src.n {
		s.src.Seed(s.seed)
	}
	for s.src.n < pos {
		s.src.Uint64()
	}
}

// Float64 returns a uniform variate in [0,1).
func (s *Stream) Float64() float64 { return s.src.Float64() }

// Intn returns a uniform integer in [0,n). It panics if n <= 0, matching
// math/rand.
func (s *Stream) Intn(n int) int { return s.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.src.Int63() }

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.src.Float64()
}

// Norm returns a standard Gaussian variate (mean 0, stddev 1).
func (s *Stream) Norm() float64 { return s.src.NormFloat64() }

// Gaussian returns a Gaussian variate with the given mean and stddev.
func (s *Stream) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.src.NormFloat64()
}

// LogNormalDB draws a log-normal shadowing value expressed in dB: a Gaussian
// in the dB domain with mean 0 and the given stddev. This is exactly the
// random variable x of eq. (9) in the paper.
func (s *Stream) LogNormalDB(sigmaDB float64) float64 {
	return sigmaDB * s.src.NormFloat64()
}

// RayleighPowerDB returns the fading power gain of a unit-mean Rayleigh
// channel, in dB. The linear power gain is exponentially distributed with
// mean 1, so the dB value has mean ≈ -2.51 dB and a long negative tail
// (deep fades). Rayleigh fading is the standard model for NLOS urban-micro
// (UMi) fast fading, which Table I of the paper calls "Fast Fading UMi
// (NLOS)". It is RayleighPowerDBAt(s.RayleighUniform()).
func (s *Stream) RayleighPowerDB() float64 {
	return RayleighPowerDBAt(s.RayleighUniform())
}

// RayleighUniform draws the uniform behind RayleighPowerDB: a Float64 in
// [2⁻⁶³, 1), redrawn while it is zero so that −ln u is finite. Callers that
// split the draw from the transform (to bound the gain before paying for it)
// consume exactly the draws RayleighPowerDB consumes.
func (s *Stream) RayleighUniform() float64 {
	u := s.src.Float64()
	for u == 0 {
		u = s.src.Float64()
	}
	return u
}

// RayleighPowerDBAt is the Rayleigh power transform 10·log10(−ln u): the dB
// gain of the unit-mean exponential power −ln u.
func RayleighPowerDBAt(u float64) float64 {
	return 10 * math.Log10(-math.Log(u))
}

// rayleighSlackDB pads every rayleighBounds entry away from the transform at
// its bucket's edge. The transform is decreasing in u, but its rounded value
// need not be monotone ulp for ulp; the slack is ~3·10⁵ ulps of the largest
// gain (16.40 dB, at u = 2⁻⁶³), far beyond the few ulps math.Log and
// math.Log10 err by.
const rayleighSlackDB = 1e-9

// rayleighBounds[(k−1)·16+m] bounds RayleighPowerDBAt over the bucket of
// uniforms with binary exponent −k (u ∈ [2⁻ᵏ, 2⁻ᵏ⁺¹), k = 1…63) and top four
// mantissa bits m: u ∈ [2⁻ᵏ(1+m/16), 2⁻ᵏ(1+(m+1)/16)). Entry [0] is the lower
// bound, the transform at the bucket's upper edge minus rayleighSlackDB
// (−Inf for the top bucket, whose edge is u = 1); entry [1] the upper bound,
// the transform at the bucket's lowest u plus rayleighSlackDB. The pair
// shares a cache line.
var rayleighBounds = func() (b [63 * 16][2]float64) {
	for i := range b {
		lo := math.Ldexp(1+float64(i%16)/16, -(i/16 + 1))
		hi := math.Ldexp(1+float64(i%16+1)/16, -(i/16 + 1))
		b[i] = [2]float64{RayleighPowerDBAt(hi) - rayleighSlackDB, RayleighPowerDBAt(lo) + rayleighSlackDB}
	}
	return b
}()

// rayleighBucket returns u's rayleighBounds index, read from its exponent and
// top mantissa bits; it is out of the table's range for u outside
// [2⁻⁶³, 1).
func rayleighBucket(u float64) int {
	bits := math.Float64bits(u)
	return (1022-int(bits>>52))*16 + int(bits>>48&15)
}

// RayleighPowerDBBounds returns cheap bounds lo ≤ RayleighPowerDBAt(u) ≤ hi
// for u in [2⁻⁶³, 1) — every value RayleighUniform returns — read from u's
// exponent and top mantissa bits without a logarithm. It panics outside
// that range. lo is −Inf for u ≥ 31/32, where the gain has no floor. Float
// addition rounds monotonically, so fl(p+lo) ≤ fl(p+gain) ≤ fl(p+hi) for
// any power p: a caller can decide p + gain < threshold without the
// transform whenever p + hi < threshold, and any comparison of sums the
// bounds settle is the comparison of the exact sums.
func RayleighPowerDBBounds(u float64) (lo, hi float64) {
	b := &rayleighBounds[rayleighBucket(u)]
	return b[0], b[1]
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (s *Stream) Exp(rate float64) float64 {
	return s.src.ExpFloat64() / rate
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.src.Perm(n) }

// Streams derives named, independent child streams from one root seed.
// The same (root seed, name) pair always yields the same stream, regardless
// of the order in which streams are requested — names are hashed, not
// sequence-numbered.
type Streams struct {
	mu   sync.Mutex
	seed int64
	open map[string]*Stream
}

// NewStreams returns a stream factory rooted at seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed, open: make(map[string]*Stream)}
}

// Seed returns the root seed the factory was built with.
func (f *Streams) Seed() int64 {
	return f.seed
}

// Get returns the stream for name, creating it deterministically on first
// use. Calling Get twice with the same name returns the same *Stream (so
// state advances across call sites sharing a name).
func (f *Streams) Get(name string) *Stream {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.open[name]; ok {
		return s
	}
	s := NewStream(deriveSeed(f.seed, name))
	f.open[name] = s
	return s
}

// Cursor records one named stream's absolute position, for snapshots. The
// stream itself is reconstructable from the factory's root seed and the
// name, so (Name, Pos) is all a checkpoint has to carry.
type Cursor struct {
	Name string `json:"name"`
	Pos  uint64 `json:"pos"`
}

// Cursors returns the cursor of every stream opened so far, sorted by name
// so snapshots are byte-stable regardless of map iteration order.
func (f *Streams) Cursors() []Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Cursor, 0, len(f.open))
	for name, s := range f.open {
		out = append(out, Cursor{Name: name, Pos: s.Pos()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Restore seeks every named stream to its recorded cursor, creating streams
// that have not been opened yet in this factory. Positions are absolute
// (counted from the derived seed), so Restore is correct whether the factory
// is fresh or has already replayed some draws — for example after re-running
// deterministic setup code before overlaying a snapshot.
func (f *Streams) Restore(cursors []Cursor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range cursors {
		s, ok := f.open[c.Name]
		if !ok {
			s = NewStream(deriveSeed(f.seed, c.Name))
			f.open[c.Name] = s
		}
		s.Seek(c.Pos)
	}
}

// deriveSeed hashes the root seed's eight little-endian bytes and the name
// with 64-bit FNV-1a (hash/fnv's New64a, inlined to keep stream creation
// allocation-free).
func deriveSeed(seed int64, name string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	v := int64(h)
	if v == 0 {
		v = 1 // Seed treats a zero seed specially; avoid it
	}
	return v
}
