package core

import (
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// BenchmarkSnapshotRoundTrip measures the checkpoint wire path — Encode
// (marshal + digest + framing) and Decode (framing + digest verify + parse
// + structural validation) — which is the per-checkpoint cost a
// -checkpoint-every run pays, so `make bench` records it in BENCH.json next
// to the stepping benchmarks.
//
//   - n=40 is the full round trip on a mid-run FST state (slot 450,
//     discovery tables populated, tree partially built).
//   - encode/n=400 and decode/n=400 time each direction on the state the
//     perfbench async-recovery workload writes: ST at n=400 under the T/4
//     asynchrony plan with its crash plan armed, at slot 2000 — neighbour
//     tables, duplicate filter and GHS adjacency at full size.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	b.Run("n=40", func(b *testing.B) {
		cfg := PaperConfig(40, 12345)
		cfg.MaxSlots = 100000
		benchCodec(b, captureAt(b, FST{}, cfg, 450), func(st *snapshot.State, _ []byte) {
			enc, err := snapshot.Encode(st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := snapshot.Decode(enc); err != nil {
				b.Fatal(err)
			}
		})
	})
	// The n=400 state is captured once and shared by both directions.
	var st400 *snapshot.State
	state400 := func(b *testing.B) *snapshot.State {
		if st400 == nil {
			cfg := PaperConfig(400, 1001)
			cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: cfg.PeriodSlots / 4,
				Reorder: true, DupRate: 0.01}
			cfg.JumpsPerCycle = 1
			plan := &faults.Plan{Version: faults.PlanSchema}
			for d := cfg.N - cfg.N/5; d < cfg.N; d++ {
				plan.Actions = append(plan.Actions, faults.Action{Kind: faults.KindCrash, At: 4000, Device: d})
			}
			cfg.Faults = plan
			st400 = captureAt(b, ST{}, cfg, 2000)
		}
		return st400
	}
	b.Run("encode/n=400", func(b *testing.B) {
		benchCodec(b, state400(b), func(st *snapshot.State, _ []byte) {
			if _, err := snapshot.Encode(st); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("decode/n=400", func(b *testing.B) {
		benchCodec(b, state400(b), func(_ *snapshot.State, data []byte) {
			if _, err := snapshot.Decode(data); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// captureAt runs proto on cfg and returns the state of its first
// checkpoint, taken at slot.
func captureAt(b *testing.B, proto Protocol, cfg Config, slot units.Slot) *snapshot.State {
	cfg.CheckpointEvery = slot
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
	proto.Run(env)
	if captured == nil || units.Slot(captured.Slot) != slot {
		b.Fatalf("no checkpoint captured at slot %d", slot)
	}
	return captured
}

// benchCodec reports st's encoded size and times op on st and its encoding
// b.N times.
func benchCodec(b *testing.B, st *snapshot.State, op func(*snapshot.State, []byte)) {
	data, err := snapshot.Encode(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(st, data)
	}
	b.ReportMetric(float64(len(data)), "snapshot-bytes")
}
