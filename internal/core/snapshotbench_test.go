package core

import (
	"testing"

	"repro/internal/snapshot"
)

// BenchmarkSnapshotRoundTrip measures the full checkpoint wire path —
// Encode (marshal + digest) and Decode (parse + digest verify + structural
// validation) — on a realistic mid-run FST state (n=40, slot 450, discovery
// tables populated, tree partially built). This is the per-checkpoint cost a
// -checkpoint-every run pays, so `make bench` records it in BENCH.json next
// to the stepping benchmarks.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 100000
	cfg.CheckpointEvery = 450
	var captured *snapshot.State
	cfg.OnCheckpoint = func(st *snapshot.State) {
		if captured == nil {
			captured = st
		}
	}
	env, err := NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	FST{}.Run(env)
	if captured == nil {
		b.Fatal("no checkpoint captured")
	}
	data, err := snapshot.Encode(captured)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(data)), "snapshot-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := snapshot.Encode(captured)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snapshot.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
