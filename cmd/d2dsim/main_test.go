package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/manifest"
	"repro/internal/telemetry"
)

// base returns the small fast runOpts the table-driven tests tweak.
func base() runOpts {
	return runOpts{exp: "single", sizes: "10", seeds: 1, baseSeed: 1, n: 10, proto: "ST", workers: 1}
}

// readReport decodes the telemetry report a -report run wrote and checks
// its schema version.
func readReport(t *testing.T, path string) telemetry.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != telemetry.ReportSchema {
		t.Fatalf("report schema %d, want %d", rep.Schema, telemetry.ReportSchema)
	}
	return rep
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
	err := run(o)
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	for _, e := range registry {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
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

// -runstats prints the protocol's own rounds beside the slot pipeline's
// phases, for either protocol.
func TestRunSingleRunStatsShowsProtocol(t *testing.T) {
	for _, proto := range []string{"ST", "FST"} {
		o := base()
		o.exp = "single"
		o.n = 20
		o.proto = proto
		o.runStats = true
		out, _ := capture(t, o)
		found := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			found = found || (len(f) >= 3 && f[0] == "protocol" && f[2] == "-")
		}
		if !found {
			t.Errorf("%s: -runstats shows no protocol row:\n%s", proto, out)
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

// capture runs o with stdout and stderr redirected and returns what each
// received.
func capture(t *testing.T, o runOpts) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	saveOut, saveErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	err = run(o)
	os.Stdout, os.Stderr = saveOut, saveErr
	if err != nil {
		t.Fatalf("-exp %s: %v", o.exp, err)
	}
	out, _ := os.ReadFile(outF.Name())
	errOut, _ := os.ReadFile(errF.Name())
	return string(out), string(errOut)
}

// withoutCacheStats drops the cache-counter lines, the only stdout a result
// cache may change: a warm cache serves runs instead of building worlds.
func withoutCacheStats(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "geometry cache:") && !strings.HasPrefix(line, "result cache:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestRunSweepExperiments runs every registered experiment at a tiny size.
// A sweep-backed experiment must print byte-identical stdout at 1 and 4
// workers (the latter with live telemetry attached), and the same tables
// from a cold and a warm -cache-dir.
func TestRunSweepExperiments(t *testing.T) {
	cacheDir := t.TempDir()
	for _, e := range registry {
		t.Run(e.name, func(t *testing.T) {
			o := base()
			o.exp = e.name
			o.n = 15
			o.sizes = "15,20"
			o.seeds = 3 // cdf needs three
			o.maxSlots = 60000
			o.plot = true
			serial, _ := capture(t, o)
			if serial == "" {
				t.Fatal("no output")
			}
			if e.kind == direct {
				return
			}
			// Live telemetry on: OnResult feeds it from concurrent workers.
			o.workers, o.slotWorkers, o.vars = 4, 2, &telemetry.Vars{}
			if parallel, _ := capture(t, o); parallel != serial {
				t.Errorf("stdout differs between 1 and 4 workers:\n%s\n%s", serial, parallel)
			}
			o.cacheDir = filepath.Join(cacheDir, e.name)
			for _, pass := range []string{"cold", "warm"} {
				if got, _ := capture(t, o); withoutCacheStats(got) != withoutCacheStats(serial) {
					t.Errorf("%s -cache-dir stdout differs:\n%s\n%s", pass, serial, got)
				}
			}
		})
	}
}

// TestRunAblationProgress pins -progress on an ablation: one JSONL line per
// job on stderr.
func TestRunAblationProgress(t *testing.T) {
	o := base()
	o.exp = "ablation-topology"
	o.n = 15
	o.seeds = 2
	o.progress = true
	_, stderr := capture(t, o)
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) != 4 { // 2 variants x 2 seeds x ST
		t.Fatalf("got %d progress lines, want 4:\n%s", len(lines), stderr)
	}
	for _, line := range lines {
		if !strings.Contains(line, `"sweep":"ablation-topology"`) {
			t.Errorf("progress line %s does not name the ablation", line)
		}
	}
}

// TestDocsNameRegisteredExperiments keeps the docs in step with the
// registry: every -exp value README.md or EXPERIMENTS.md names is
// registered, and README.md names every registered experiment.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	named := regexp.MustCompile(`-exp\s+([a-z0-9-]+)`)
	registered := map[string]bool{}
	for _, e := range registry {
		registered[e.name] = true
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range named.FindAllStringSubmatch(string(raw), -1) {
			seen[m[1]] = true
			if !registered[m[1]] {
				t.Errorf("%s names unregistered experiment -exp %s", doc, m[1])
			}
		}
		if doc != "README.md" {
			continue
		}
		for _, e := range registry {
			if !seen[e.name] {
				t.Errorf("README.md never names -exp %s", e.name)
			}
		}
		// The experiment table's "Runs on" column must match each entry's
		// kind.
		runsOn := map[expKind]string{direct: "direct", sweepSizes: "sweep, `-sizes`", sweepN: "sweep, `-n`"}
		rows := map[string]string{}
		for _, m := range tableRow.FindAllStringSubmatch(string(raw), -1) {
			rows[m[1]] = strings.TrimSpace(m[2])
		}
		for _, e := range registry {
			if got, ok := rows[e.name]; !ok {
				t.Errorf("README.md's experiment table has no row for -exp %s", e.name)
			} else if want := runsOn[e.kind]; got != want {
				t.Errorf("README.md says -exp %s runs on %q, the registry says %q", e.name, got, want)
			}
		}
	}
}

// tableRow matches one row of README's experiment table: the -exp name and
// its "Runs on" cell.
var tableRow = regexp.MustCompile("(?m)^\\| `-exp ([a-z0-9-]+)` \\|([^|]*)\\|")

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
	rep := readReport(t, path)
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

// -maxslots applies to a -config run as it does to a default one: a cap
// below one period is rejected, a larger one is the run's cap.
func TestConfigRunHonoursMaxSlots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := manifest.Default(30, 1).Save(path); err != nil {
		t.Fatal(err)
	}
	o := base()
	o.config = path
	o.maxSlots = 50
	if err := run(o); err == nil || !strings.Contains(err.Error(), "MaxSlots 50") {
		t.Errorf("-config with -maxslots 50: err = %v, want the slot cap rejected", err)
	}

	o.maxSlots = 500
	o.report = filepath.Join(t.TempDir(), "report.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, o.report)
	var m manifest.Manifest
	if err := json.Unmarshal(rep.Manifest, &m); err != nil {
		t.Fatal(err)
	}
	if m.N != 30 || m.MaxSlots != 500 || rep.Result.Converged || rep.Result.TotalSlots != 500 {
		t.Errorf("report: manifest n=%d cap=%d, converged=%v over %d slots; want n=30 capped at 500",
			m.N, m.MaxSlots, rep.Result.Converged, rep.Result.TotalSlots)
	}
}

// A report records the fault and asynchrony plans its run attached, and
// its config digest tells the runs apart; without plans the digest is the
// manifest's own.
func TestReportCarriesPlans(t *testing.T) {
	dir := t.TempDir()
	report := func(plan *faults.Plan, netPlan *asyncnet.Plan) telemetry.Report {
		t.Helper()
		o := base()
		o.n = 20
		o.maxSlots = 3000
		o.faults, o.net = plan, netPlan
		o.report = filepath.Join(dir, "report.json")
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return readReport(t, o.report)
	}
	crash := &faults.Plan{Version: faults.PlanSchema, Actions: []faults.Action{{Kind: faults.KindCrash, At: 2000, Device: 3}}}
	delay := &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 5}

	plain := report(nil, nil)
	m := manifest.Default(20, 1)
	m.MaxSlots = 3000
	if want, _ := m.Digest(); plain.ConfigDigest != want || plain.Faults != nil || plain.Net != nil {
		t.Errorf("plain report: digest %s (want %s), faults %s, net %s", plain.ConfigDigest, want, plain.Faults, plain.Net)
	}
	digests := map[string]string{"plain": plain.ConfigDigest}
	for _, c := range []struct {
		name string
		plan *faults.Plan
		net  *asyncnet.Plan
	}{{"faults", crash, nil}, {"net", nil, delay}, {"both", crash, delay}} {
		rep := report(c.plan, c.net)
		if (rep.Faults != nil) != (c.plan != nil) || (rep.Net != nil) != (c.net != nil) {
			t.Errorf("%s: report embeds faults %s, net %s", c.name, rep.Faults, rep.Net)
		}
		if rep.Faults != nil {
			if got, err := faults.Read(bytes.NewReader(rep.Faults)); err != nil || len(got.Actions) != 1 {
				t.Errorf("%s: embedded fault plan %s does not read back: %v", c.name, rep.Faults, err)
			}
		}
		if rep.Net != nil {
			if got, err := asyncnet.Read(bytes.NewReader(rep.Net)); err != nil || got.MaxDelaySlots != 5 {
				t.Errorf("%s: embedded net plan %s does not read back: %v", c.name, rep.Net, err)
			}
		}
		for other, d := range digests {
			if d == rep.ConfigDigest {
				t.Errorf("%s and %s reports share config digest %s", c.name, other, d)
			}
		}
		digests[c.name] = rep.ConfigDigest
	}
}

// Acceptance: the live exposition endpoint must serve the documented gauge
// names and reflect completed runs.
// TestTelemetryAddrServesMetrics drives each sweep through -telemetry-addr:
// every run the sweep makes must reach /metrics, and the delay sweep's
// adversary counts must reach the d2dsim_net_* families.
func TestTelemetryAddrServesMetrics(t *testing.T) {
	for _, tc := range []struct {
		exp      string
		positive []string
		exact    string
	}{
		// 1 size × 1 seed × 2 protocols.
		{exp: "fig3", exact: "d2dsim_runs_completed_total 2\n"},
		{exp: "delay", positive: []string{"d2dsim_runs_completed_total", "d2dsim_net_delayed_total"}},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			vars := &telemetry.Vars{}
			srv, addr, err := telemetry.Serve("127.0.0.1:0", vars)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			o := base()
			o.exp = tc.exp
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
			if tc.exact != "" && !strings.Contains(out, tc.exact) {
				t.Errorf("want %q in:\n%s", tc.exact, out)
			}
			for _, name := range tc.positive {
				if v := metricValue(out, name); v <= 0 {
					t.Errorf("%s = %v, want > 0:\n%s", name, v, out)
				}
			}
		})
	}
}

// metricValue returns the value of the unlabelled sample name in a
// Prometheus text exposition, or -1 when it is absent.
func metricValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return -1
			}
			return f
		}
	}
	return -1
}
