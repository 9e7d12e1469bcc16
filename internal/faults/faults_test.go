package faults

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

func validPlan() *Plan {
	return &Plan{
		Version:  PlanSchema,
		LossRate: 0.1,
		Actions: []Action{
			{Kind: KindCrash, At: 500, Device: 3},
			{Kind: KindRecover, At: 900, Device: 3},
			{Kind: KindJoin, At: 200, Device: 7},
			{Kind: KindClockJump, At: 700, Device: 1, Delta: 0.25},
		},
		Outages: []Outage{
			{At: 100, Slots: 50, A: 2, B: 4},
			{At: 300, Slots: 20, A: 5, B: -1},
		},
	}
}

func TestPlanValidate(t *testing.T) {
	if err := validPlan().Validate(10, 1000); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (*Plan)(nil).Validate(10, 1000); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"bad schema", func(p *Plan) { p.Version = PlanSchema + 1 }},
		{"loss above 1", func(p *Plan) { p.LossRate = 1.5 }},
		{"loss negative", func(p *Plan) { p.LossRate = -0.1 }},
		{"unknown kind", func(p *Plan) { p.Actions[0].Kind = "explode" }},
		{"at zero", func(p *Plan) { p.Actions[0].At = 0 }},
		{"at past cap", func(p *Plan) { p.Actions[0].At = 1001 }},
		{"device negative", func(p *Plan) { p.Actions[0].Device = -1 }},
		{"device out of range", func(p *Plan) { p.Actions[0].Device = 10 }},
		{"duplicate action", func(p *Plan) {
			p.Actions = append(p.Actions, Action{Kind: KindClockJump, At: 500, Device: 3})
		}},
		{"double join", func(p *Plan) {
			p.Actions = append(p.Actions, Action{Kind: KindJoin, At: 950, Device: 7})
		}},
		{"crash while down", func(p *Plan) {
			p.Actions = append(p.Actions, Action{Kind: KindCrash, At: 600, Device: 3})
		}},
		{"recover while up", func(p *Plan) {
			p.Actions = append(p.Actions, Action{Kind: KindRecover, At: 100, Device: 2})
		}},
		{"join after crash", func(p *Plan) {
			p.Actions = append(p.Actions,
				Action{Kind: KindCrash, At: 50, Device: 8},
				Action{Kind: KindJoin, At: 400, Device: 8})
		}},
		{"outage zero slots", func(p *Plan) { p.Outages[0].Slots = 0 }},
		{"outage at past cap", func(p *Plan) { p.Outages[0].At = 2000 }},
		{"outage bad a", func(p *Plan) { p.Outages[0].A = 11 }},
		{"outage self link", func(p *Plan) { p.Outages[0].B = p.Outages[0].A }},
		{"outage bad b", func(p *Plan) { p.Outages[0].B = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validPlan()
			tc.mutate(p)
			if err := p.Validate(10, 1000); err == nil {
				t.Errorf("%s: plan accepted, want error", tc.name)
			}
		})
	}
}

func TestReadRejectsUnknownFieldsAndGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version":1,"lossy_rate":0.5}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":1} {"version":1}`)); err == nil {
		t.Error("trailing data accepted")
	}
	p, err := Read(strings.NewReader(`{"version":1,"actions":[{"kind":"crash","at":5,"device":0}]}`))
	if err != nil {
		t.Fatalf("valid JSON rejected: %v", err)
	}
	if len(p.Actions) != 1 || p.Actions[0].Kind != KindCrash {
		t.Errorf("parsed plan %+v, want one crash action", p)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"loss_rate":0.2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.LossRate != 0.2 {
		t.Errorf("loss rate %v, want 0.2", p.LossRate)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInjectorScheduling(t *testing.T) {
	inj := NewInjector(validPlan(), xrand.NewStreams(1).Get("faults"))

	dead := inj.InitialDead()
	if len(dead) != 1 || dead[0] != 7 {
		t.Errorf("InitialDead = %v, want [7]", dead)
	}

	if at, ok := inj.NextBoundary(0); !ok || at != 200 {
		t.Errorf("NextBoundary(0) = %d,%v, want 200,true", at, ok)
	}
	if due := inj.PopDue(100); len(due) != 0 {
		t.Errorf("PopDue(100) = %v, want none", due)
	}
	due := inj.PopDue(700)
	if len(due) != 3 || due[0].Kind != KindJoin || due[1].Kind != KindCrash || due[2].Kind != KindClockJump {
		t.Errorf("PopDue(700) = %v, want join@200, crash@500, clock-jump@700", due)
	}
	if at, ok := inj.NextBoundary(700); !ok || at != 900 {
		t.Errorf("NextBoundary(700) = %d,%v, want 900,true", at, ok)
	}
	if !inj.Pending() {
		t.Error("actions remain but Pending() = false")
	}
	if due := inj.PopDue(900); len(due) != 1 || due[0].Kind != KindRecover {
		t.Errorf("PopDue(900) = %v, want the recover", due)
	}
	if inj.Pending() {
		t.Error("all actions popped but Pending() = true")
	}
	if _, ok := inj.NextBoundary(900); ok {
		t.Error("NextBoundary after exhaustion reported a slot")
	}
}

func TestInjectorPartitionEdges(t *testing.T) {
	p := validPlan()
	p.Partitions = []Partition{
		{At: 300, Slots: 400, Group: []int{0, 1}},
		{At: 600, Slots: 50, Group: []int{2}},
	}
	inj := NewInjector(p, xrand.NewStreams(1).Get("faults"))
	for _, c := range []struct {
		after    units.Slot
		edge, at units.Slot // next partition edge, next boundary
	}{
		{0, 300, 200},   // the join action comes first
		{300, 600, 500}, // and the crash
		{600, 650, 650},
		{650, 700, 700}, // the first split lifts with the clock jump
	} {
		if at, ok := inj.NextPartitionEdge(c.after); !ok || at != c.edge {
			t.Errorf("NextPartitionEdge(%d) = %d,%v, want %d,true", c.after, at, ok, c.edge)
		}
		if at, ok := inj.NextBoundary(c.after); !ok || at != c.at {
			t.Errorf("NextBoundary(%d) = %d,%v, want %d,true", c.after, at, ok, c.at)
		}
	}
	if _, ok := inj.NextPartitionEdge(700); ok {
		t.Error("NextPartitionEdge after the last lift reported a slot")
	}
	if _, ok := (*Injector)(nil).NextPartitionEdge(0); ok {
		t.Error("a nil injector reported a partition edge")
	}
}

func TestInjectorDrops(t *testing.T) {
	p := &Plan{Version: PlanSchema, Outages: []Outage{
		{At: 100, Slots: 50, A: 2, B: 4},
		{At: 300, Slots: 20, A: 5, B: -1},
	}}
	inj := NewInjector(p, xrand.NewStreams(1).Get("faults"))
	if !inj.Filters() {
		t.Fatal("plan with outages must filter")
	}
	check := func(from, to int, slot units.Slot, want bool) {
		t.Helper()
		if got := inj.Drops(from, to, slot); got != want {
			t.Errorf("Drops(%d,%d,%d) = %v, want %v", from, to, slot, got, want)
		}
	}
	check(2, 4, 120, true)  // pair outage, forward
	check(4, 2, 120, true)  // pair outage, reverse
	check(2, 4, 99, false)  // before window
	check(2, 4, 150, false) // window is [At, At+Slots)
	check(2, 3, 120, false) // other link unaffected
	check(5, 0, 310, true)  // node-level outage: any link of 5
	check(1, 5, 310, true)
	check(1, 0, 310, false)

	// Without loss, no draws: the stream is untouched and results are
	// pure schedule lookups.
	empty := NewInjector(&Plan{Version: PlanSchema}, xrand.NewStreams(1).Get("faults"))
	if empty.Filters() {
		t.Error("empty plan must not filter")
	}

	// With loss 1.0 every delivery drops; with 0 none do.
	always := NewInjector(&Plan{Version: PlanSchema, LossRate: 1}, xrand.NewStreams(1).Get("faults"))
	if !always.Drops(0, 1, 10) {
		t.Error("loss rate 1 kept a delivery")
	}
}

func TestNilInjector(t *testing.T) {
	if inj := NewInjector(nil, nil); inj != nil {
		t.Error("nil plan must compile to a nil injector")
	}
}
