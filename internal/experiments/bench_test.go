package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// pairRounds is how many alternating rounds benchPair measures.
const pairRounds = 3

// benchPair benchmarks the variants of a gated pair in pairRounds
// alternating rounds, each round running every variant once in turn, so a
// drift in the host's speed hits both sides alike instead of landing
// between two blocks of repeats. go test names the repeats name#01,
// name#02, ...; benchjson folds them into one row by median. A -bench
// pattern that ends a variant's name with $ matches only the first round;
// a variant that ran in some rounds but not all fails the benchmark.
func benchPair(b *testing.B, names []string, run func(b *testing.B, variant int)) {
	rounds := make([]int, len(names))
	for r := 0; r < pairRounds; r++ {
		for v, name := range names {
			ran := false
			b.Run(name, func(b *testing.B) {
				ran = true
				run(b, v)
			})
			if ran {
				rounds[v]++
			}
		}
	}
	for v, name := range names {
		if rounds[v] > 0 && rounds[v] < pairRounds {
			b.Fatalf("%s ran in %d of %d rounds: the -bench pattern misses its repeats %s#01…, end it with \\b instead of $",
				name, rounds[v], pairRounds, name)
		}
	}
}

// BenchmarkSweepPrefix measures the recovery sweep (RunRecoverySweep) with
// its checkpoint ring off (cold: every derived crash-wave run replays its
// prefix from slot 1) and on at the automatic cadence (shared: each derived
// run resumes from the reference run's latest checkpoint before the crash
// wave). TestRunRecoverySweepPrefixIdentical pins both variants to the same
// results; this benchmark records what the ring buys, and `make bench`
// gates shared no slower than cold in BENCH.json.
func BenchmarkSweepPrefix(b *testing.B) {
	prefix := []units.Slot{0, -1}
	benchPair(b, []string{"cold", "shared"}, func(b *testing.B, v int) {
		opts := Options{
			Sizes:       []int{50, 100, 200},
			Seeds:       2,
			BaseSeed:    1,
			Workers:     1,
			PrefixSlots: prefix[v],
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunRecoverySweep(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnvMemoized measures environment construction cold (positions,
// channel state and the O(n·degree) link index built from scratch) against
// construction through a warm GeometryCache (the memoized index shared as
// is, with no copy). `make bench` gates memoized no slower than cold in
// BENCH.json.
func BenchmarkEnvMemoized(b *testing.B) {
	cfg := core.PaperConfig(1000, 7)
	geom := []*core.GeometryCache{nil, core.NewGeometryCache()}
	benchPair(b, []string{"cold", "memoized"}, func(b *testing.B, v int) {
		c := cfg
		c.Geometry = geom[v]
		if _, err := core.NewEnv(c); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewEnv(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepCached measures a full RunSweep cold (every job simulated)
// and fully warm (every job served from the content-addressed result cache).
func BenchmarkSweepCached(b *testing.B) {
	opts := Options{
		Sizes:    []int{40, 60},
		Seeds:    3,
		BaseSeed: 1,
		MaxSlots: 60000,
		Workers:  1,
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunSweep(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		o := opts
		o.Cache = NewResultCache(0, "")
		if _, err := RunSweep(o); err != nil { // fill the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunSweep(o); err != nil {
				b.Fatal(err)
			}
		}
	})
}
