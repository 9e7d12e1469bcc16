package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// Differential spine of the bounded-asynchrony message runtime
// (internal/asyncnet): a degenerate plan must be bit-identical to no plan at
// all in every layout, an adversarial plan must be bit-identical between the
// reference stepper and the engine at every shard layout and worker count,
// checkpoints taken with messages in flight must resume exactly, and the
// liveness watchdog must stay silent at the adversary's delay bound.

func netCfg(n int, seed int64, maxSlots units.Slot, plan *asyncnet.Plan) Config {
	cfg := PaperConfig(n, seed)
	cfg.MaxSlots = maxSlots
	cfg.Net = plan
	if plan != nil && !plan.Degenerate() {
		cfg.JumpsPerCycle = 1 // hardened-protocol discipline (see Config.Net)
	}
	return cfg
}

// TestNetDegenerateBitIdentical pins the lockstep-equivalence guarantee: a
// degenerate asynchrony plan (zero delay, no duplication, no loss — with or
// without the reorder flag) produces byte-identical trajectories to running
// without the message runtime at all, in every layout, with and without a
// fault plan underneath.
func TestNetDegenerateBitIdentical(t *testing.T) {
	degenerates := []*asyncnet.Plan{
		{Version: asyncnet.PlanSchema},
		{Version: asyncnet.PlanSchema, Reorder: true},
	}
	plans := []*faults.Plan{
		nil,
		{
			Version:  faults.PlanSchema,
			LossRate: 0.05,
			Actions: []faults.Action{
				{Kind: faults.KindCrash, At: 400, Device: 3},
				{Kind: faults.KindRecover, At: 900, Device: 3},
			},
			Outages: []faults.Outage{{At: 500, Slots: 100, A: 7, B: -1}},
		},
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		for fi, fplan := range plans {
			base := netCfg(40, 12345, 2500, nil)
			base.Faults = fplan
			want, _ := fingerprintCfg(t, proto, base)
			if want.res.Net != nil {
				t.Fatalf("run without a plan reported Net counters: %+v", want.res.Net)
			}
			for di, dplan := range degenerates {
				for _, eng := range layouts {
					cfg := base
					cfg.Net = dplan
					got, _ := fingerprintCfg(t, proto, eng.apply(cfg))
					label := fmt.Sprintf("%s/faults%d/degen%d/%s", proto.Name(), fi, di, eng.name)
					compareFingerprints(t, label, want, got)
					if got.res.Net != nil {
						t.Errorf("%s: degenerate plan constructed the message runtime: %+v", label, got.res.Net)
					}
				}
			}
		}
	}
}

// TestNetAdversaryDeterministic pins the adversary's determinism contract:
// with delay, reordering and duplication active, the reference stepper and
// the engine at every shard layout and worker count walk the same trajectory
// draw for draw.
func TestNetAdversaryDeterministic(t *testing.T) {
	plan := &asyncnet.Plan{
		Version:       asyncnet.PlanSchema,
		MaxDelaySlots: 25,
		Reorder:       true,
		DupRate:       0.01,
		LossRate:      0.005,
	}
	for _, proto := range []Protocol{FST{}, ST{}, Centralized{}} {
		ref, _ := fingerprintCfg(t, proto, withOracle(netCfg(40, 12345, 2500, plan)))
		if ref.res.Net == nil {
			t.Fatalf("%s: adversarial run reported no Net counters", proto.Name())
		}
		if ref.res.Net.Delayed == 0 {
			t.Fatalf("%s: adversary delayed nothing — the plan is not biting", proto.Name())
		}
		for _, eng := range layouts[1:] {
			got, _ := fingerprintCfg(t, proto, eng.apply(netCfg(40, 12345, 2500, plan)))
			label := proto.Name() + "/adversary/" + eng.name
			compareFingerprints(t, label, ref, got)
			if got.res.Net == nil || *got.res.Net != *ref.res.Net {
				t.Errorf("%s: Net counters differ: %+v vs %+v", label, ref.res.Net, got.res.Net)
			}
		}
	}
}

// TestNetAdversaryWithFaultsDeterministic layers the message adversary over
// an active fault schedule (channel loss, crash, recovery, outage) and pins
// layout and worker invariance of the combined trajectory.
func TestNetAdversaryWithFaultsDeterministic(t *testing.T) {
	nplan := &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 12, Reorder: true, DupRate: 0.02}
	fplan := &faults.Plan{
		Version:  faults.PlanSchema,
		LossRate: 0.05,
		Actions: []faults.Action{
			{Kind: faults.KindCrash, At: 400, Device: 5},
			{Kind: faults.KindRecover, At: 1000, Device: 5},
		},
		Outages: []faults.Outage{{At: 600, Slots: 80, A: 2, B: -1}},
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		base := netCfg(40, 777, 3000, nplan)
		base.Faults = fplan
		ref, _ := fingerprintCfg(t, proto, withOracle(base))
		for _, eng := range layouts[1:] {
			got, _ := fingerprintCfg(t, proto, eng.apply(base))
			compareFingerprints(t, proto.Name()+"/adversary+faults/"+eng.name, ref, got)
		}
	}
}

// TestNetWatchdogNoFalsePositiveAtMaxDelay drives the liveness watchdog at
// the boundary: a pure latency shift of exactly the largest legal delay
// (one slot below the firing period), with the watchdog armed by a benign
// clock-jump fault. The widened patience window (watchdogPeriods*T +
// maxDelay) must keep every live device unconvicted — a false positive
// would evict a live device and show up as a spurious repair round.
func TestNetWatchdogNoFalsePositiveAtMaxDelay(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(30, 4242)
		cfg.JumpsPerCycle = 1
		boundary := cfg.PeriodSlots - 1 // largest delay Validate admits
		cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: boundary}
		cfg.Faults = &faults.Plan{
			Version: faults.PlanSchema,
			Actions: []faults.Action{{Kind: faults.KindClockJump, At: 1500, Device: 4, Delta: 0.3}},
		}
		env := mustEnv(t, cfg)
		res := proto.Run(env)
		if !res.Converged {
			t.Errorf("%s: did not re-converge under boundary delay %d", proto.Name(), boundary)
		}
		if res.Repairs != 0 {
			t.Errorf("%s: %d spurious repair rounds — watchdog false positive at exactly max delay",
				proto.Name(), res.Repairs)
		}
	}
}

// TestNetPartitionFragmentsAndRejoins is the graceful-degradation pin: a
// network split under an active message adversary must not wedge either
// protocol — each side keeps running, and once the split lifts the repair
// machinery rejoins the far side and the run re-converges.
func TestNetPartitionFragmentsAndRejoins(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(30, 2024)
		cfg.JumpsPerCycle = 1
		cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 10, Reorder: true, DupRate: 0.01}
		cfg.Faults = &faults.Plan{
			Version:    faults.PlanSchema,
			Partitions: []faults.Partition{{At: 1600, Slots: 600, Group: []int{0, 1, 2, 3, 4, 5, 6}}},
		}
		env := mustEnv(t, cfg)
		res := proto.Run(env)
		if !res.Converged {
			t.Fatalf("%s: never re-converged after the partition lifted", proto.Name())
		}
		if res.Recoveries < 1 {
			t.Fatalf("%s: no recovery round recorded — the split either was not observed or never healed", proto.Name())
		}
	}
}

// TestNetCheckpointResumeMidFlight interrupts an adversarial run at
// checkpoints that provably carry in-flight messages and resumes each into
// every layout: the continuation must reproduce the uninterrupted run bit
// for bit, through the full wire encoding.
func TestNetCheckpointResumeMidFlight(t *testing.T) {
	plan := &asyncnet.Plan{
		Version:       asyncnet.PlanSchema,
		MaxDelaySlots: 30,
		Reorder:       true,
		DupRate:       0.05,
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := netCfg(40, 12345, 2500, plan)
			cfg.CheckpointEvery = 150
			base, cks := checkpointRun(t, proto, cfg)

			// Checkpointing must stay trajectory-neutral under the adversary.
			plainCfg := netCfg(40, 12345, 2500, plan)
			plain, _ := fingerprintCfg(t, proto, plainCfg)
			compareFingerprints(t, proto.Name()+"/net/checkpointing-neutral", plain, base)

			// Find checkpoints that actually hold in-flight messages — the
			// whole point of the schema-2 Net section.
			var midFlight []taggedCheckpoint
			for _, ck := range cks {
				st := decodeCheckpoint(t, ck)
				if st.Net != nil && len(st.Net.InFlight) > 0 {
					midFlight = append(midFlight, ck)
				}
			}
			if len(midFlight) == 0 {
				t.Fatal("no checkpoint captured in-flight messages; adversary or cadence mistuned")
			}
			pick := midFlight[len(midFlight)/2]
			for _, tgt := range layouts {
				rCfg := tgt.apply(cfg)
				rCfg.Resume = decodeCheckpoint(t, pick)
				cont, _ := fingerprintCfg(t, proto, rCfg)
				label := fmt.Sprintf("%s/net/resume@%d/%s", proto.Name(), pick.slot, tgt.name)
				checkResume(t, label, base, pick.slot, cont)
				if cont.res.Net == nil {
					t.Errorf("%s: resumed run lost the Net counters", label)
				} else if *cont.res.Net != *base.res.Net {
					// The resumed run restores the queue's counters from the
					// snapshot, so the totals must match the uninterrupted run.
					t.Errorf("%s: Net counters differ: base %+v vs resumed %+v", label, base.res.Net, cont.res.Net)
				}
			}
		})
	}
}

// TestNetSnapshotValidatesInFlight pins the snapshot validator's Net checks:
// out-of-range endpoints, non-positive due slots and sequence numbers beyond
// the cursor must all be rejected at decode time.
func TestNetSnapshotValidatesInFlight(t *testing.T) {
	cfg := netCfg(40, 12345, 2500, &asyncnet.Plan{
		Version: asyncnet.PlanSchema, MaxDelaySlots: 30, Reorder: true, DupRate: 0.05,
	})
	cfg.CheckpointEvery = 150
	_, cks := checkpointRun(t, FST{}, cfg)
	var st *snapshot.State
	for _, ck := range cks {
		s := decodeCheckpoint(t, ck)
		if s.Net != nil && len(s.Net.InFlight) > 0 {
			st = s
			break
		}
	}
	if st == nil {
		t.Fatal("no mid-flight checkpoint to mutate")
	}
	corrupt := func(name string, mutate func(*snapshot.State)) {
		data, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		mutate(bad)
		raw, err := snapshot.Encode(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Decode(raw); err == nil {
			t.Errorf("%s: corrupted Net section decoded cleanly", name)
		}
	}
	corrupt("from out of range", func(s *snapshot.State) { s.Net.InFlight[0].From = s.N })
	corrupt("to negative", func(s *snapshot.State) { s.Net.InFlight[0].To = -1 })
	corrupt("due slot zero", func(s *snapshot.State) { s.Net.InFlight[0].At = 0 })
	corrupt("seq beyond cursor", func(s *snapshot.State) { s.Net.InFlight[0].Seq = s.Net.Seq })
	corrupt("accepted out of range", func(s *snapshot.State) {
		s.Net.Accepted = append(s.Net.Accepted, asyncnet.LinkSlot{From: s.N, To: 0, Slot: 1})
	})
}

// TestNetAdversaryConvergesAtScale is the acceptance run: n=200, max delay
// T/4, reordering on, 1% duplication — both distributed protocols must still
// reach detected synchrony, identically at every worker count.
func TestNetAdversaryConvergesAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=200 acceptance run skipped in -short mode")
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(200, 7)
		cfg.JumpsPerCycle = 1
		cfg.Net = &asyncnet.Plan{
			Version:       asyncnet.PlanSchema,
			MaxDelaySlots: cfg.PeriodSlots / 4,
			Reorder:       true,
			DupRate:       0.01,
		}
		ref, _ := fingerprintCfg(t, proto, cfg)
		if !ref.res.Converged {
			t.Fatalf("%s: n=200 did not converge under T/4 delay with reordering and 1%% duplication", proto.Name())
		}
		par := cfg
		par.Workers = -1
		par.shards = 8
		got, _ := fingerprintCfg(t, proto, par)
		compareFingerprints(t, proto.Name()+"/n200/workers", ref, got)
	}
}

// TestNetResumeMatchesUninterrupted pins two resumes of n=400 ST runs under
// the T/4 plan that once diverged from their uninterrupted runs: the echo
// transmitters still armed at the end of the checkpoint slot were not
// captured, so the resumed run dropped their re-announcement in the next
// slot. The Result must match field for field, slot accounting included.
func TestNetResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("n=400 resume runs skipped in -short mode")
	}
	cases := []struct {
		seed              int64
		crashAt, resumeAt units.Slot
	}{
		{seed: 200003, resumeAt: 2000},
		{seed: 108004, crashAt: 4000, resumeAt: 4000}, // a fifth of the devices crash
	}
	for _, c := range cases {
		cfg := PaperConfig(400, c.seed)
		cfg.JumpsPerCycle = 1
		cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: cfg.PeriodSlots / 4,
			Reorder: true, DupRate: 0.01}
		if c.crashAt > 0 {
			cfg.Faults = &faults.Plan{Version: faults.PlanSchema}
			for d := cfg.N - cfg.N/5; d < cfg.N; d++ {
				cfg.Faults.Actions = append(cfg.Faults.Actions,
					faults.Action{Kind: faults.KindCrash, At: int64(c.crashAt), Device: d})
			}
		}
		cfg.CheckpointEvery = 2000
		base, cks := checkpointRun(t, ST{}, cfg)
		var pick *taggedCheckpoint
		for i := range cks {
			if cks[i].slot == c.resumeAt {
				pick = &cks[i]
			}
		}
		if pick == nil {
			t.Fatalf("seed %d: no checkpoint at slot %d", c.seed, c.resumeAt)
		}
		rCfg := cfg
		rCfg.OnCheckpoint = nil
		rCfg.Resume = decodeCheckpoint(t, *pick)
		cont, _ := fingerprintCfg(t, ST{}, rCfg)
		label := fmt.Sprintf("ST/seed=%d/resume@%d", c.seed, c.resumeAt)
		checkResume(t, label, base, c.resumeAt, cont)
		if !reflect.DeepEqual(cont.res, base.res) {
			t.Errorf("%s: resumed Result differs:\n%v (active %d of %d)\n%v (active %d of %d)", label,
				cont.res, cont.res.ActiveSlots, cont.res.TotalSlots, base.res, base.res.ActiveSlots, base.res.TotalSlots)
		}
	}
}
