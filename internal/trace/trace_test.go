package trace

import (
	"strings"
	"testing"

	"repro/internal/units"
)

// fire records one device fire on r, as the engine emits it.
func fire(r *Recorder, slot units.Slot, device int) {
	r.Add(Event{Slot: slot, Kind: KindFire, A: device, B: -1})
}

func TestRecorderOrder(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 5; i++ {
		fire(r, units.Slot(i), i)
	}
	evs := r.Events()
	if len(evs) != 5 || r.Len() != 5 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if int(e.Slot) != i || e.A != i || e.Kind != KindFire || e.B != -1 {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestRecorderWraps(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		fire(r, units.Slot(i), i)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, want := range []int{4, 5, 6} {
		if evs[i].A != want {
			t.Errorf("event %d device = %d, want %d", i, evs[i].A, want)
		}
	}
}

func TestRecorderMinCapacity(t *testing.T) {
	r := NewRecorder(0)
	fire(r, 1, 1)
	fire(r, 2, 2)
	if r.Len() != 1 || r.Events()[0].A != 2 {
		t.Error("capacity-1 recorder should keep the latest event")
	}
}

func TestWriteTo(t *testing.T) {
	r := NewRecorder(4)
	fire(r, 10, 3)
	r.Add(Event{Slot: 11, Kind: KindMerge, A: 1, B: 2})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fire") || !strings.Contains(out, "dev=3") {
		t.Errorf("missing fire line: %q", out)
	}
	if !strings.Contains(out, "merge") || !strings.Contains(out, "peer=2") {
		t.Errorf("missing merge line: %q", out)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindFire: "fire", KindMerge: "merge", KindJoin: "join", KindConverge: "converge",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind format")
	}
}

func TestRaster(t *testing.T) {
	events := []Event{
		{Slot: 0, Kind: KindFire, A: 0},
		{Slot: 10, Kind: KindFire, A: 1},
		{Slot: 95, Kind: KindFire, A: 0},
		{Slot: 95, Kind: KindFire, A: 1},
		{Slot: 200, Kind: KindFire, A: 0},       // outside window
		{Slot: 50, Kind: KindMerge, A: 0, B: 1}, // not a fire
	}
	out := Raster(events, 2, 0, 100, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	ue0 := lines[1]
	ue1 := lines[2]
	if !strings.HasPrefix(ue0, "UE0") || !strings.HasPrefix(ue1, "UE1") {
		t.Fatalf("row labels wrong:\n%s", out)
	}
	// UE0 fired in buckets 0 and 9; UE1 in buckets 1 and 9.
	r0 := strings.Fields(ue0)[1]
	r1 := strings.Fields(ue1)[1]
	if r0[0] != '|' || r0[9] != '|' || r0[1] != '.' {
		t.Errorf("UE0 raster %q", r0)
	}
	if r1[1] != '|' || r1[9] != '|' || r1[0] != '.' {
		t.Errorf("UE1 raster %q", r1)
	}
}

func TestRasterDegenerate(t *testing.T) {
	if Raster(nil, 0, 0, 100, 10) != "" {
		t.Error("n=0 should render empty")
	}
	if Raster(nil, 2, 100, 100, 10) != "" {
		t.Error("empty window should render empty")
	}
	// bucketSlots < 1 coerced; out-of-range device ignored.
	events := []Event{{Slot: 5, Kind: KindFire, A: 99}}
	out := Raster(events, 2, 0, 10, 0)
	if !strings.Contains(out, "UE0") {
		t.Error("raster should render rows")
	}
	if strings.Contains(out, "|") {
		t.Error("out-of-range device must not mark")
	}
}
