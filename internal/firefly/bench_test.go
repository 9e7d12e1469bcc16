package firefly

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/xrand"
)

func benchParams(n int) Params {
	p := DefaultParams(n, 2, -10, 10)
	p.Iterations = 5
	return p
}

func BenchmarkRunBasic(b *testing.B) {
	p := benchParams(128)
	obj := Sphere([]float64{0, 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, obj, xrand.NewStream(int64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunOrdered(b *testing.B) {
	p := benchParams(128)
	obj := Sphere([]float64{0, 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOrdered(p, obj, xrand.NewStream(int64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalize(b *testing.B) {
	obs := []RangeObservation{
		{Anchor: geo.Point{X: 10, Y: 10}, Distance: 50},
		{Anchor: geo.Point{X: 90, Y: 20}, Distance: 55},
		{Anchor: geo.Point{X: 50, Y: 90}, Distance: 40},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Localize(obs, geo.Square(100), xrand.NewStream(int64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
