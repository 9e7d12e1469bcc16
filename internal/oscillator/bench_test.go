package oscillator

import (
	"testing"

	"repro/internal/xrand"
)

func BenchmarkEnsembleStepMesh(b *testing.B) {
	src := xrand.NewStream(1)
	phases := make([]float64, 200)
	for i := range phases {
		phases[i] = src.Float64()
	}
	e := NewEnsemble(phases, 100, WeakCoupling(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkOnPulse(b *testing.B) {
	o := New(0.4, 100, WeakCoupling())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Phase = 0.4
		o.OnPulse(int64(i + 10))
	}
}
