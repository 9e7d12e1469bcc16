package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Slot: 0, Kind: KindFire, A: 3, B: -1},
		{Slot: 12, Kind: KindJoin, A: 0, B: 7},
		{Slot: 40, Kind: KindMerge, A: 2, B: 5},
		{Slot: 77, Kind: KindChurn, A: 9, B: -1},
		{Slot: 120, Kind: KindConverge, A: -1, B: -1},
	}
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	for _, e := range in {
		if err := jw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if jw.Count() != len(in) {
		t.Fatalf("Count = %d, want %d", jw.Count(), len(in))
	}

	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestJSONLSchemaRejection(t *testing.T) {
	bad := `{"v":99,"slot":1,"kind":"fire","a":0,"b":-1}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
		t.Fatal("wrong schema version must be rejected")
	}
	garbage := "not json\n"
	if _, err := ReadJSONL(strings.NewReader(garbage)); err == nil {
		t.Fatal("malformed line must be rejected")
	}
	unknown := `{"v":1,"slot":1,"kind":"teleport","a":0,"b":-1}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(unknown)); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
}

func TestJSONLSkipsBlankLines(t *testing.T) {
	in := `{"v":1,"slot":5,"kind":"fire","a":1,"b":-1}` + "\n\n" +
		`{"v":1,"slot":6,"kind":"converge","a":-1,"b":-1}` + "\n"
	out, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Slot != 5 || out[1].Kind != KindConverge {
		t.Fatalf("decoded %+v", out)
	}
}

func TestJSONLWriterStickyError(t *testing.T) {
	jw := NewJSONLWriter(failWriter{})
	// bufio absorbs small writes; force the flush to surface the error.
	for i := 0; i < 5000; i++ {
		jw.Write(Event{Slot: units.Slot(i), Kind: KindFire, A: i, B: -1})
	}
	if err := jw.Flush(); err == nil {
		t.Fatal("Flush must surface the sink error")
	}
	if err := jw.Write(Event{Kind: KindFire, A: 0, B: -1}); err == nil {
		t.Fatal("Write after error must keep returning it")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errSink
}

var errSink = &sinkError{}

type sinkError struct{}

func (*sinkError) Error() string { return "sink failed" }

func TestRecorderDropped(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 3; i++ {
		fire(r, units.Slot(i), i)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d before wrap, want 0", r.Dropped())
	}
	for i := 3; i < 8; i++ {
		fire(r, units.Slot(i), i)
	}
	if r.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5", r.Dropped())
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	// Retained tail is the newest 3 events: ids 5, 6, 7.
	for i, want := range []int{5, 6, 7} {
		if r.Events()[i].A != want {
			t.Errorf("event %d = %d, want %d", i, r.Events()[i].A, want)
		}
	}
}
