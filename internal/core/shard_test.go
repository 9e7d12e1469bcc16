package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// Differential pin for the spatially sharded engine: for every shard count
// — one shard, a few, one per CPU, one per device — the engine must
// reproduce the reference stepper bit for bit: same fired
// sequence, counters, ops, discovery tables, trees and final phases.
// Sharding composes with worker counts, fault plans and checkpointing, so
// those variants are pinned here too (resume_test.go additionally restores
// checkpoints into several layouts).

func TestShardEngineBitIdenticalToSequential(t *testing.T) {
	const n = 50
	shardCounts := []int{1, 4, runtime.NumCPU(), n}
	protos := []Protocol{FST{}, ST{}, Centralized{}}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				cfg := PaperConfig(n, seed)
				cfg.MaxSlots = 20000
				seq, seqPhases := fingerprintCfg(t, proto, withOracle(cfg))
				if len(seq.fires) == 0 {
					t.Fatalf("seed=%d: reference run produced no fires", seed)
				}
				for _, shards := range shardCounts {
					sCfg := cfg
					sCfg.shards = shards
					got, gotPhases := fingerprintCfg(t, proto, sCfg)
					label := fmt.Sprintf("%s/seed=%d/shards=%d", proto.Name(), seed, shards)
					compareFingerprints(t, label, seq, got)
					comparePhases(t, label, seqPhases, gotPhases)
				}
			}
		})
	}
}

// Shards compose with the worker pool: the same trajectory must come out
// whether shard work runs inline or fans out over any number of workers.
func TestShardEngineWorkerCountInvariant(t *testing.T) {
	cfg := PaperConfig(80, 5)
	cfg.MaxSlots = 6000
	seq, seqPhases := fingerprintCfg(t, ST{}, withOracle(cfg))
	for _, workers := range []int{2, 8} {
		for _, shards := range []int{4, 16} {
			sCfg := cfg
			sCfg.Workers = workers
			sCfg.shards = shards
			got, gotPhases := fingerprintCfg(t, ST{}, sCfg)
			label := fmt.Sprintf("ST/workers=%d/shards=%d", workers, shards)
			compareFingerprints(t, label, seq, got)
			comparePhases(t, label, seqPhases, gotPhases)
		}
	}
}

// The non-capture transport produces a delivery list that is not
// receiver-contiguous; the sharded engine must fall back to sequential
// application and still match.
func TestShardEngineBitIdenticalWithoutCaptureModel(t *testing.T) {
	cfg := PaperConfig(50, 11)
	cfg.MaxSlots = 1500
	cfg.CaptureMarginDB = -1
	seq, seqPhases := fingerprintCfg(t, ST{}, withOracle(cfg))
	for _, shards := range []int{4, 50} {
		sCfg := cfg
		sCfg.shards = shards
		got, gotPhases := fingerprintCfg(t, ST{}, sCfg)
		label := fmt.Sprintf("ST/no-capture/shards=%d", shards)
		compareFingerprints(t, label, seq, got)
		comparePhases(t, label, seqPhases, gotPhases)
	}
}

// An active fault plan — crashes, recovery, a join, a clock jump, outages
// and background loss — exercises every sharded-engine hook (deschedule,
// rescheduleDevice, phaseWritten, dropFailed); the trajectory and the
// recovery accounting must still match the reference exactly.
func TestShardEngineFaultPlanBitIdentical(t *testing.T) {
	for _, proto := range []Protocol{ST{}, FST{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			base := fastConfig(40, 9)
			base.Faults = activePlan(base.N)
			seq, seqPhases := fingerprintCfg(t, proto, withOracle(base))
			for _, shards := range []int{1, 4, 40} {
				cfg := base
				cfg.shards = shards
				got, gotPhases := fingerprintCfg(t, proto, cfg)
				label := fmt.Sprintf("%s/faults/shards=%d", proto.Name(), shards)
				compareFingerprints(t, label, seq, got)
				compareRecovery(t, label, seq.res, got.res)
				comparePhases(t, label, seqPhases, gotPhases)
			}
		})
	}
}

// Checkpoints must be byte-identical across shard layouts: the SoA layout
// is engine-internal scratch, devices serialize in canonical id order, and
// every layout steps the same slots (so even the accounting section matches
// bytewise).
func TestShardEngineCheckpointsByteIdentical(t *testing.T) {
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 100000
	cfg.CheckpointEvery = 150
	seqBase, seqCks := checkpointRun(t, FST{}, cfg)

	sCfg := cfg
	sCfg.shards = 4
	shBase, shCks := checkpointRun(t, FST{}, sCfg)
	compareFingerprints(t, "FST/checkpointing-sharded", seqBase, shBase)
	if len(shCks) != len(seqCks) {
		t.Fatalf("checkpoint counts differ: one shard %d vs four %d", len(seqCks), len(shCks))
	}
	for i := range seqCks {
		if !bytes.Equal(seqCks[i].data, shCks[i].data) {
			t.Errorf("checkpoint %d (slot %d) differs between one and four shards",
				i, seqCks[i].slot)
		}
	}

	// And a run resumed from a sharded-captured checkpoint on the sharded
	// engine reproduces the baseline.
	mid := shCks[len(shCks)/2]
	rCfg := sCfg
	rCfg.Resume = decodeCheckpoint(t, mid)
	cont, _ := fingerprintCfg(t, FST{}, rCfg)
	checkResume(t, fmt.Sprintf("FST/resume@%d/sharded", mid.slot), shBase, mid.slot, cont)
}

// Shard-count policy: tiny runs stay on one shard even when Workers
// requests parallelism (the documented n=5000 regression fix), there is
// always at least one shard, and the floor/cap arithmetic must hold.
func TestAutoShardCount(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{1, 1, 1},       // a single device still has a shard
		{50, 4, 1},      // below the floor: one shard
		{511, 8, 1},     // just below 2 shards
		{512, 8, 2},     // two full shards
		{5000, 4, 19},   // n/256, under the 8·workers cap
		{100000, 4, 32}, // capped at 8·workers
		{100000, 1, 8},  // single worker still shards (lazy skip pays alone)
		{300, 0, 1},     // workers clamp to 1
	}
	for _, c := range cases {
		if got := autoShardCount(c.n, c.workers); got != c.want {
			t.Errorf("autoShardCount(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// The shard map must be a true partition with id-sorted members and
// cell-aligned contiguity, for any shard count including the degenerate
// ones.
func TestShardMapPartition(t *testing.T) {
	cfg := PaperConfig(200, 3)
	env := mustEnv(t, cfg)
	pts := devicePositions(env)
	for _, shards := range []int{1, 3, 7, 200, 500} {
		sm := newShardMap(pts, shards)
		if sm.count < 1 || sm.count > 200 {
			t.Fatalf("shards=%d: count %d out of range", shards, sm.count)
		}
		if int(sm.off[sm.count]) != len(sm.order) || len(sm.order) != 200 {
			t.Fatalf("shards=%d: roster not a partition", shards)
		}
		seen := make([]bool, 200)
		for s := 0; s < sm.count; s++ {
			lo, hi := sm.span(s)
			if lo >= hi {
				t.Fatalf("shards=%d: shard %d empty", shards, s)
			}
			prev := int32(-1)
			for mi := lo; mi < hi; mi++ {
				id := sm.order[mi]
				if id <= prev {
					t.Fatalf("shards=%d: shard %d not id-sorted", shards, s)
				}
				prev = id
				if seen[id] {
					t.Fatalf("shards=%d: device %d in two shards", shards, id)
				}
				seen[id] = true
				if int(sm.shardOf[id]) != s || int(sm.memberOf[id]) != mi {
					t.Fatalf("shards=%d: reverse maps wrong for device %d", shards, id)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("shards=%d: device %d unassigned", shards, id)
			}
		}
	}
}
