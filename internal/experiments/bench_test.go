package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// BenchmarkSweepPrefix measures the recovery sweep (RunRecoverySweep) with
// its checkpoint ring off (cold: every derived crash-wave run replays its
// prefix from slot 1) and on at the automatic cadence (shared: each derived
// run resumes from the reference run's latest checkpoint before the crash
// wave). TestRunRecoverySweepPrefixIdentical pins both variants to the same
// results; this benchmark records what the ring buys, and `make bench`
// gates shared no slower than cold in BENCH.json.
func BenchmarkSweepPrefix(b *testing.B) {
	for _, v := range []struct {
		name  string
		slots units.Slot
	}{{"cold", 0}, {"shared", -1}} {
		b.Run(v.name, func(b *testing.B) {
			opts := Options{
				Sizes:       []int{50, 100, 200},
				Seeds:       2,
				BaseSeed:    1,
				Workers:     1,
				PrefixSlots: v.slots,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunRecoverySweep(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvMemoized measures environment construction cold (positions,
// channel state and the O(n·degree) link index built from scratch) against
// construction through a warm GeometryCache (the memoized index shared as
// is, with no copy). `make bench` gates memoized no slower than cold in
// BENCH.json.
func BenchmarkEnvMemoized(b *testing.B) {
	cfg := core.PaperConfig(1000, 7)
	for _, v := range []struct {
		name string
		geom *core.GeometryCache
	}{{"cold", nil}, {"memoized", core.NewGeometryCache()}} {
		b.Run(v.name, func(b *testing.B) {
			c := cfg
			c.Geometry = v.geom
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
