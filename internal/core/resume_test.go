package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// Correctness spine of the checkpoint/restore subsystem: a run interrupted at
// any checkpoint and resumed — at the same worker count or another, or on the
// reference stepper — must reproduce the uninterrupted run bit for bit: same fired sequence past the
// checkpoint, same counters, same ops, same trees. Checkpoints round-trip
// through the full wire encoding (Encode → bytes → Decode), so the
// serialization itself is on the hook, not just the in-memory state.

// taggedCheckpoint is one checkpoint captured during a run, already encoded.
type taggedCheckpoint struct {
	slot units.Slot
	data []byte
}

// checkpointRun runs proto on cfg with OnCheckpoint wired to the full wire
// encoding, returning the run fingerprint and the captured checkpoints.
func checkpointRun(t *testing.T, proto Protocol, cfg Config) (runFingerprint, []taggedCheckpoint) {
	t.Helper()
	var cks []taggedCheckpoint
	cfg.OnCheckpoint = func(st *snapshot.State) {
		data, err := snapshot.Encode(st)
		if err != nil {
			t.Fatalf("encode checkpoint at slot %d: %v", st.Slot, err)
		}
		cks = append(cks, taggedCheckpoint{slot: units.Slot(st.Slot), data: data})
	}
	fp, _ := fingerprintCfg(t, proto, cfg)
	return fp, cks
}

func decodeCheckpoint(t *testing.T, ck taggedCheckpoint) *snapshot.State {
	t.Helper()
	st, err := snapshot.Decode(ck.data)
	if err != nil {
		t.Fatalf("decode checkpoint at slot %d: %v", ck.slot, err)
	}
	return st
}

// checkResume verifies that a continuation resumed from snapSlot, stitched
// onto the baseline's fire prefix, reproduces the baseline exactly.
func checkResume(t *testing.T, label string, baseline runFingerprint, snapSlot units.Slot, cont runFingerprint) {
	t.Helper()
	prefix := 0
	for prefix < len(baseline.fires) && baseline.fires[prefix].slot <= snapSlot {
		prefix++
	}
	stitched := runFingerprint{res: cont.res}
	stitched.fires = append(stitched.fires, baseline.fires[:prefix]...)
	stitched.fires = append(stitched.fires, cont.fires...)
	compareFingerprints(t, label, baseline, stitched)
}

func TestResumeBitIdentical(t *testing.T) {
	cases := []struct {
		proto Protocol
		every units.Slot
	}{
		// FST converges around slot 772 and ST around 1227 on this seed, so
		// every=150 yields several mid-run checkpoints; the Centralized
		// protocol only checkpoints its 200-slot discovery phase.
		{FST{}, 150},
		{ST{}, 150},
		{Centralized{}, 60},
	}
	for _, c := range cases {
		c := c
		t.Run(c.proto.Name(), func(t *testing.T) {
			cfg := PaperConfig(40, 12345)
			cfg.MaxSlots = 100000

			// The uninterrupted reference, no checkpointing at all.
			plain, _ := fingerprintCfg(t, c.proto, cfg)

			// Checkpointing must not perturb the trajectory: the boundary
			// slots it folds into the schedule are inert.
			cfg.CheckpointEvery = c.every
			base, cks := checkpointRun(t, c.proto, cfg)
			compareFingerprints(t, c.proto.Name()+"/checkpointing-neutral", plain, base)
			if len(cks) < 2 {
				t.Fatalf("%s: want at least 2 checkpoints, got %d", c.proto.Name(), len(cks))
			}

			// The same run on the reference stepper must emit byte-identical
			// snapshots (modulo the engine's own accounting section) — the
			// captured state does not depend on how slots were stepped.
			refBase, refCks := checkpointRun(t, c.proto, withOracle(cfg))
			compareFingerprints(t, c.proto.Name()+"/oracle-checkpointing-neutral", plain, refBase)
			if len(refCks) != len(cks) {
				t.Fatalf("%s: checkpoint counts differ: engine %d vs reference %d", c.proto.Name(), len(cks), len(refCks))
			}
			for i := range cks {
				w := normalizeEngineSection(t, cks[i])
				g := normalizeEngineSection(t, refCks[i])
				if !bytes.Equal(w, g) {
					t.Errorf("%s: checkpoint %d (slot %d) differs between the engine and the reference",
						c.proto.Name(), i, cks[i].slot)
				}
			}

			// Restore the middle checkpoint into every layout.
			mid := cks[len(cks)/2]
			for _, tgt := range layouts {
				rCfg := tgt.apply(cfg)
				rCfg.Resume = decodeCheckpoint(t, mid)
				cont, _ := fingerprintCfg(t, c.proto, rCfg)
				label := fmt.Sprintf("%s/resume@%d/%s", c.proto.Name(), mid.slot, tgt.name)
				checkResume(t, label, base, mid.slot, cont)
				if !tgt.oracle {
					// Even the slot accounting excluded from fingerprints
					// must line up exactly.
					if cont.res.ActiveSlots != base.res.ActiveSlots || cont.res.TotalSlots != base.res.TotalSlots {
						t.Errorf("%s: slot accounting differs: base (%d, %d) vs resumed (%d, %d)",
							label, base.res.ActiveSlots, base.res.TotalSlots,
							cont.res.ActiveSlots, cont.res.TotalSlots)
					}
				}
			}
		})
	}
}

// normalizeEngineSection re-marshals a checkpoint's state with the engine
// accounting zeroed, so engine-independent equality can be asserted bytewise.
func normalizeEngineSection(t *testing.T, ck taggedCheckpoint) []byte {
	t.Helper()
	st := decodeCheckpoint(t, ck)
	st.Engine = snapshot.EngineState{}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("re-marshal checkpoint at slot %d: %v", ck.slot, err)
	}
	return data
}

// Resume under an active fault schedule: the checkpoint must carry the fault
// injector's cursor, the loss stream position, watchdog timers and presumed-
// dead bookkeeping, so a resume in the middle of a fault episode continues
// the exact same recovery trajectory.
func TestResumeWithFaultPlan(t *testing.T) {
	plan := &faults.Plan{
		Version:  faults.PlanSchema,
		LossRate: 0.05,
		Actions: []faults.Action{
			{Kind: faults.KindCrash, At: 260, Device: 3},
			{Kind: faults.KindCrash, At: 420, Device: 11},
			{Kind: faults.KindRecover, At: 700, Device: 3},
			{Kind: faults.KindClockJump, At: 900, Device: 5, Delta: 0.4},
		},
		Outages: []faults.Outage{{At: 500, Slots: 120, A: 7, B: -1}},
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := PaperConfig(40, 12345)
			cfg.MaxSlots = 2500 // bit-identity does not need convergence
			cfg.Faults = plan
			cfg.CheckpointEvery = 150

			base, cks := checkpointRun(t, proto, cfg)
			if len(cks) < 2 {
				t.Fatalf("want at least 2 checkpoints, got %d", len(cks))
			}

			// Resume once from inside the dead window (both crashes applied,
			// recovery pending) and once from after the whole schedule.
			for _, at := range []units.Slot{450, 1000} {
				var pick *taggedCheckpoint
				for i := range cks {
					if cks[i].slot >= at {
						pick = &cks[i]
						break
					}
				}
				if pick == nil {
					t.Fatalf("no checkpoint at or after slot %d", at)
				}
				for _, tgt := range layouts {
					rCfg := tgt.apply(cfg)
					rCfg.Resume = decodeCheckpoint(t, *pick)
					cont, _ := fingerprintCfg(t, proto, rCfg)
					label := fmt.Sprintf("%s/faults/resume@%d/%s", proto.Name(), pick.slot, tgt.name)
					checkResume(t, label, base, pick.slot, cont)
				}
			}
		})
	}
}

// A fault run resumed from a fault-free snapshot — how the recovery sweep
// reuses its reference run's prefix — must return the same Result as the
// fault run from slot 1, up to the ActiveSlots/TotalSlots accounting the
// checkpoint boundaries add. The snapshot has no fault section, so the
// resume rebuilds what the fault layer reads: FST's parent pointers from its
// join log. The snapshot lands mid-join (n=120 joins until slot ~1150) and
// the crash wave, the FST root among its victims, two periods later; the
// joins outlast the watchdog's patience, so it prunes the tree around the
// corpses and the rebuilt pointers decide what survives the prune. (The
// recovery sweep's own crash wave comes after convergence and its survivors
// re-synchronize before the watchdog presumes anyone.)
func TestResumeFaultRunFromFaultFreeSnapshot(t *testing.T) {
	variants := []struct {
		name            string
		period, workers int
	}{
		{"dense", 0, 0},
		{"sparse", 400, 0}, // most slots skipped by the horizon
		{"auto", 0, -1},    // one worker per CPU
		{"sharded", 0, 2},
	}
	for _, v := range variants {
		for _, proto := range []Protocol{FST{}, ST{}} {
			t.Run(v.name+"/"+proto.Name(), func(t *testing.T) {
				cfg := fastConfig(120, 7)
				if v.period > 0 {
					cfg.PeriodSlots = v.period
				}
				cfg.Workers = v.workers
				clean := proto.Run(mustEnv(t, cfg))
				if !clean.Converged {
					t.Fatal("fault-free run did not converge")
				}
				T := units.Slot(cfg.PeriodSlots)
				// The latest fault-free checkpoint at or before four periods.
				var snap *snapshot.State
				ck := cfg
				ck.CheckpointEvery = T
				ck.OnCheckpoint = func(st *snapshot.State) {
					if units.Slot(st.Slot) <= 4*T {
						snap = st
					}
				}
				proto.Run(mustEnv(t, ck))
				if snap == nil || units.Slot(snap.Slot) <= T {
					t.Fatalf("no checkpoint between one and four periods (converged at %d)", clean.ConvergenceSlots)
				}
				faulted := cfg
				faulted.Faults = crashAt(snap.Slot+2*int64(T)+50, 0, 26, 27, 118, 119)
				want := proto.Run(mustEnv(t, faulted))
				faulted.Resume = snap
				got := proto.Run(mustEnv(t, faulted))
				want.ActiveSlots, want.TotalSlots = 0, 0
				got.ActiveSlots, got.TotalSlots = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("resumed from the fault-free snapshot at %d:\n got  %+v\n want %+v", snap.Slot, got, want)
				}
			})
		}
	}
}

// A resume must refuse configs that contradict the snapshot instead of
// silently diverging.
func TestResumeValidation(t *testing.T) {
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 100000
	cfg.CheckpointEvery = 150
	_, cks := checkpointRun(t, FST{}, cfg)
	if len(cks) == 0 {
		t.Fatal("no checkpoints captured")
	}
	st := decodeCheckpoint(t, cks[0])

	bad := cfg
	bad.Resume = st
	bad.N = 41
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a resume snapshot with mismatched N")
	}
	bad = cfg
	bad.Resume = st
	bad.Seed = 99
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a resume snapshot with mismatched seed")
	}
	bad = cfg
	bad.Resume = st
	bad.MaxSlots = units.Slot(st.Slot) - 1
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a resume snapshot past MaxSlots")
	}

	ok := cfg
	ok.Resume = st
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a consistent resume config: %v", err)
	}

	// Protocol mismatch is a programming error caught at run time.
	defer func() {
		if recover() == nil {
			t.Error("resuming ST with an FST snapshot did not panic")
		}
	}()
	rCfg := cfg
	rCfg.Resume = st
	env := mustEnv(t, rCfg)
	ST{}.Run(env)
}
