package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// base returns the small fast runOpts the table-driven tests tweak.
func base() runOpts {
	return runOpts{exp: "single", sizes: "10", seeds: 1, baseSeed: 1, n: 10, proto: "ST", workers: 1}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("50,100, 200")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{50, 100, 200}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Trailing commas and blanks are tolerated.
	if got, err := parseSizes("10,,20,"); err != nil || len(got) != 2 {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestParseSizesErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", "10,-5", "0", "1.5"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should error", bad)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	o := base()
	o.exp = "nonsense"
	if err := run(o); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	o := base()
	o.proto = "XYZ"
	if err := run(o); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestRunTable1(t *testing.T) {
	o := base()
	o.exp = "table1"
	if err := run(o); err != nil {
		t.Errorf("table1 failed: %v", err)
	}
	o.csv = true
	if err := run(o); err != nil {
		t.Errorf("table1 CSV failed: %v", err)
	}
}

func TestRunSingle(t *testing.T) {
	for _, proto := range []string{"ST", "FST", "fst", "st"} {
		o := base()
		o.n = 20
		o.proto = proto
		o.maxSlots = 60000
		if err := run(o); err != nil {
			t.Errorf("single %s failed: %v", proto, err)
		}
	}
}

func TestRunFig2(t *testing.T) {
	o := base()
	o.exp = "fig2"
	o.n = 17
	if err := run(o); err != nil {
		t.Errorf("fig2 failed: %v", err)
	}
}

func TestRunSweepExperiments(t *testing.T) {
	// Tiny sweep through each sweep-backed experiment, with plots.
	for _, exp := range []string{"fig3", "fig4", "ops", "energy", "activity"} {
		o := base()
		o.exp = exp
		o.sizes = "15,20"
		o.maxSlots = 60000
		o.workers = 2
		o.slotWorkers = 2
		o.plot = true
		if err := run(o); err != nil {
			t.Errorf("%s failed: %v", exp, err)
		}
	}
}

// Acceptance: `-report out.json` must emit a report that parses, carries
// the config identity, and holds a non-empty order-parameter series.
func TestRunSingleWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	o := base()
	o.n = 20
	o.maxSlots = 60000
	o.report = path
	if err := run(o); err != nil {
		t.Fatalf("single with -report failed: %v", err)
	}
	rep, err := telemetry.LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "ST" {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if len(rep.ConfigDigest) != 64 {
		t.Errorf("config digest %q is not sha256 hex", rep.ConfigDigest)
	}
	if len(rep.Manifest) == 0 {
		t.Error("report must embed the manifest")
	}
	if len(rep.Series) == 0 {
		t.Fatal("report series is empty")
	}
	var sawOrder bool
	for _, s := range rep.Series {
		if s.OrderParam < 0 || s.OrderParam > 1 {
			t.Errorf("order parameter %v out of [0,1]", s.OrderParam)
		}
		if s.OrderParam > 0 {
			sawOrder = true
		}
	}
	if !sawOrder {
		t.Error("order-parameter series never left zero")
	}
	if !rep.Result.Converged {
		t.Error("n=20 reference run should converge")
	}
	if rep.Result.TotalTx == 0 || rep.Result.EnergyMJ == 0 {
		t.Errorf("result scalars empty: %+v", rep.Result)
	}
}

// Acceptance: the live exposition endpoint must serve the documented gauge
// names and reflect completed runs.
func TestTelemetryAddrServesMetrics(t *testing.T) {
	vars := &telemetry.Vars{}
	srv, addr, err := telemetry.Serve("127.0.0.1:0", vars)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	o := base()
	o.exp = "fig3"
	o.sizes = "15"
	o.maxSlots = 60000
	o.vars = vars
	if err := run(o); err != nil {
		t.Fatalf("sweep with telemetry failed: %v", err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, name := range []string{
		"d2dsim_runs_completed_total",
		"d2dsim_runs_converged_total",
		"d2dsim_slots_stepped_total",
		"d2dsim_slots_total",
		"d2dsim_active_slot_ratio",
		"d2dsim_messages_total",
		"d2dsim_sweep_point",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metric %s missing:\n%s", name, out)
		}
	}
	// 1 size × 1 seed × 2 protocols.
	if !strings.Contains(out, "d2dsim_runs_completed_total 2\n") {
		t.Errorf("runs_completed wrong:\n%s", out)
	}
}
