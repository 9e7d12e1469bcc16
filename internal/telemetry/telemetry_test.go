package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestNilRunIsInert(t *testing.T) {
	var r *Run
	if r.Enabled() {
		t.Error("nil run must report disabled")
	}
	if r.SampleEvery() != 0 {
		t.Error("nil run SampleEvery must be 0")
	}
	if r.WantsSample(100) {
		t.Error("nil run must never want a sample")
	}
	if _, ok := r.NextSampleAfter(7); ok {
		t.Error("nil run must have no next boundary")
	}
	r.SlotStepped()
	r.Record(Sample{Slot: 1})
	if r.SlotsStepped() != 0 || r.Len() != 0 || r.Dropped() != 0 || r.Samples() != nil {
		t.Error("nil run must stay empty after probe calls")
	}
}

func TestSampleBoundaries(t *testing.T) {
	r := NewRun(100, 8)
	if !r.Enabled() || r.SampleEvery() != 100 {
		t.Fatal("enabled run misconfigured")
	}
	for _, slot := range []units.Slot{100, 200, 1000} {
		if !r.WantsSample(slot) {
			t.Errorf("slot %d should be a boundary", slot)
		}
	}
	for _, slot := range []units.Slot{1, 99, 101, 250} {
		if r.WantsSample(slot) {
			t.Errorf("slot %d should not be a boundary", slot)
		}
	}
	cases := []struct{ after, want units.Slot }{
		{0, 100}, {1, 100}, {99, 100}, {100, 200}, {101, 200}, {250, 300},
	}
	for _, c := range cases {
		got, ok := r.NextSampleAfter(c.after)
		if !ok || got != c.want {
			t.Errorf("NextSampleAfter(%d) = %d,%v, want %d", c.after, got, ok, c.want)
		}
	}
}

func TestSamplingDisabledByInterval(t *testing.T) {
	r := NewRun(0, 4)
	if r.SampleEvery() != 0 || r.WantsSample(100) {
		t.Error("every=0 must disable sampling")
	}
	if _, ok := r.NextSampleAfter(5); ok {
		t.Error("every=0 must have no boundaries")
	}
	r.SlotStepped()
	if r.SlotsStepped() != 1 {
		t.Error("counters must still work with sampling off")
	}
}

func TestRingWrapAndDrop(t *testing.T) {
	r := NewRun(10, 3)
	for i := 1; i <= 5; i++ {
		r.Record(Sample{Slot: units.Slot(i * 10)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	got := r.Samples()
	for i, want := range []units.Slot{30, 40, 50} {
		if got[i].Slot != want {
			t.Errorf("sample %d slot = %d, want %d", i, got[i].Slot, want)
		}
	}
}

func TestDefaultSeriesCap(t *testing.T) {
	r := NewRun(10, 0)
	if len(r.samples) != DefaultSeriesCap {
		t.Fatalf("capacity = %d, want %d", len(r.samples), DefaultSeriesCap)
	}
}

func TestSlotSteppedFeedsLive(t *testing.T) {
	v := &Vars{}
	r := NewRun(10, 4)
	r.Live = v
	for i := 0; i < 3; i++ {
		r.SlotStepped()
	}
	if r.SlotsStepped() != 3 || v.SlotsStepped.Load() != 3 {
		t.Fatalf("stepped run=%d live=%d, want 3/3", r.SlotsStepped(), v.SlotsStepped.Load())
	}
}

func TestVarsRecordResult(t *testing.T) {
	v := &Vars{}
	if v.ActiveSlotRatio() != 1 {
		t.Error("empty registry ratio should be 1")
	}
	v.RecordResult(40, true, 500, 1000, 123)
	v.RecordResult(60, false, 250, 1000, 77)
	if v.RunsCompleted.Load() != 2 || v.RunsConverged.Load() != 1 {
		t.Errorf("runs=%d converged=%d", v.RunsCompleted.Load(), v.RunsConverged.Load())
	}
	if got := v.ActiveSlotRatio(); got != 0.375 {
		t.Errorf("ratio = %g, want 0.375", got)
	}
	if v.Messages.Load() != 200 || v.SweepPoint.Load() != 60 {
		t.Errorf("messages=%d sweep=%d", v.Messages.Load(), v.SweepPoint.Load())
	}
	// nil receiver is a no-op (disabled live registry).
	var nv *Vars
	nv.RecordResult(1, true, 1, 1, 1)
}

// documentedMetrics are the Prometheus names DESIGN.md §7 commits to.
var documentedMetrics = []string{
	"d2dsim_runs_completed_total",
	"d2dsim_runs_converged_total",
	"d2dsim_slots_stepped_total",
	"d2dsim_slots_total",
	"d2dsim_active_slot_ratio",
	"d2dsim_messages_total",
	"d2dsim_sweep_point",
}

func TestWriteMetricsNames(t *testing.T) {
	v := &Vars{}
	v.RecordResult(40, true, 500, 1000, 123)
	var b strings.Builder
	if err := v.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range documentedMetrics {
		if !strings.Contains(out, "\n"+name+" ") && !strings.HasPrefix(out, name+" ") {
			t.Errorf("metric %s missing from exposition:\n%s", name, out)
		}
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing TYPE line", name)
		}
	}
	if !strings.Contains(out, "d2dsim_runs_completed_total 1\n") {
		t.Errorf("runs_completed value wrong:\n%s", out)
	}
}

func TestMuxEndpoints(t *testing.T) {
	v := &Vars{}
	v.RecordResult(40, true, 500, 1000, 123)
	srv := httptest.NewServer(NewMux(v))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "d2dsim_runs_completed_total") {
		t.Errorf("/metrics status %d body %q", code, body)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "d2dsim") {
		t.Errorf("/debug/vars status %d", code)
	}
	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	// Building a second mux must not panic on the expvar republish.
	_ = NewMux(v)
}

func TestServeAndClose(t *testing.T) {
	v := &Vars{}
	srv, addr, err := Serve("127.0.0.1:0", v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := NewRun(100, 8)
	r.Record(Sample{Slot: 100, OrderParam: 0.2, PhaseSpread: 0.9, Links: 10, Fragments: 40, RachTx: 50})
	r.Record(Sample{Slot: 200, OrderParam: 0.95, PhaseSpread: 0.05, Links: 120, Fragments: 1, RachTx: 90, Collisions: 3})
	res := ResultSummary{
		Converged: true, ConvergenceSlots: 4321, TotalTx: 90, Rach1Tx: 80, Rach2Tx: 10,
		Collisions: 3, Ops: 999, DiscoveredLinks: 120, ServiceDiscovery: 0.5,
		ActiveSlots: 400, TotalSlots: 4321, EnergyMJ: 12.5, TreeEdges: 39,
	}
	rep := r.BuildReport("ST", res)
	if rep.Schema != ReportSchema || rep.SampleEverySlots != 100 || len(rep.Series) != 2 {
		t.Fatalf("report malformed: %+v", rep)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != "ST" || got.Result != res {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(got.Series) != 2 || got.Series[1] != rep.Series[1] {
		t.Errorf("series mismatch: %+v", got.Series)
	}
}

func TestLoadReportRejectsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	rep := Report{Schema: ReportSchema + 1, Protocol: "ST"}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}
