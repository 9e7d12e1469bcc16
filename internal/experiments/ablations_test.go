package experiments

import (
	"strings"
	"testing"
)

// fixedOptions is the single-size sweep the ablation tests run: n devices,
// seeds repetitions per point.
func fixedOptions(n, seeds int) Options {
	return Options{Sizes: []int{n}, Seeds: seeds, BaseSeed: 1}
}

func TestAblationDrift(t *testing.T) {
	tb, err := AblationDrift(fixedOptions(15, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 10 { // 5 drift levels x 2 protocols
		t.Errorf("rows = %d, want 10", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Ablation D") {
		t.Error("missing title")
	}
}

func TestAblationPreambles(t *testing.T) {
	tb, err := AblationPreambles(fixedOptions(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 8 { // 4 pool sizes x 2 protocols
		t.Errorf("rows = %d, want 8", tb.Rows())
	}
}

func TestAblationDetection(t *testing.T) {
	tb, err := AblationDetection(fixedOptions(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 { // 2 detectors x 2 protocols
		t.Errorf("rows = %d, want 4", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "SINR") || !strings.Contains(out, "threshold+capture") {
		t.Errorf("detector labels missing:\n%s", out)
	}
}

func TestDiscoverySchedules(t *testing.T) {
	tb, err := DiscoverySchedules(20, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Errorf("rows = %d, want 4 schedules", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"always-on", "birthday", "prime-duty"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing schedule %q:\n%s", want, out)
		}
	}
	if _, err := DiscoverySchedules(1, 1, 0); err == nil {
		t.Error("n=1 should error")
	}
}

func TestThreeWay(t *testing.T) {
	tb, err := ThreeWay(fixedOptions(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 { // 1 size x 3 protocols
		t.Errorf("rows = %d, want 3", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FST", "ST", "BS"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing protocol %q", want)
		}
	}
	if _, err := ThreeWay(Options{Seeds: 1}); err == nil {
		t.Error("empty sizes should error")
	}
}

func TestConvergenceDistribution(t *testing.T) {
	tb, err := ConvergenceDistribution(fixedOptions(20, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 { // FST + ST + p-value row
		t.Errorf("rows = %d, want 3", tb.Rows())
	}
	if _, err := ConvergenceDistribution(fixedOptions(20, 2)); err == nil {
		t.Error("too few seeds should error")
	}
}

func TestTreeQualityExperiment(t *testing.T) {
	tb, err := TreeQuality(fixedOptions(25, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("rows = %d, want 2", tb.Rows())
	}
}

func TestUnderlayExperiment(t *testing.T) {
	tb, err := Underlay([]int{0, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("rows = %d, want 2", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "underlay sum") {
		t.Error("missing column")
	}
}

func TestServicesExperiment(t *testing.T) {
	tb, err := Services(fixedOptions(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 { // 4 service-group counts
		t.Errorf("rows = %d, want 4", tb.Rows())
	}
}

func TestMobilityExperiment(t *testing.T) {
	tb, err := Mobility(15, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("rows = %d, want 2 epochs", tb.Rows())
	}
	if _, err := Mobility(15, 1, 30, 1); err == nil {
		t.Error("single epoch should error")
	}
}

func TestAblationCapture(t *testing.T) {
	tb, err := AblationCapture(fixedOptions(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 6 { // 3 margins x 2 protocols
		t.Errorf("rows = %d, want 6", tb.Rows())
	}
}

func TestTimeline(t *testing.T) {
	tb, err := Timeline(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() < 3 {
		t.Errorf("timeline rows = %d, want several samples + the converged row", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "converged") {
		t.Error("missing converged row")
	}
}

func TestAblationChannel(t *testing.T) {
	tb, err := AblationChannel(fixedOptions(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 { // 2 channels x 2 protocols
		t.Errorf("rows = %d, want 4", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "correlated") {
		t.Error("missing channel label")
	}
}

func TestEnergyTable(t *testing.T) {
	rows, err := RunSweep(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	tb := EnergyTable(rows)
	if tb.Rows() != len(rows) {
		t.Errorf("energy rows = %d", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mJ") {
		t.Error("energy table missing unit")
	}
	for _, r := range rows {
		if r.EnergyFST.Mean <= 0 || r.EnergyST.Mean <= 0 {
			t.Error("energy summaries not populated")
		}
	}
}

func TestChartsRender(t *testing.T) {
	rows, err := RunSweep(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, chart := range map[string]interface{ Render() (string, error) }{
		"fig3": Fig3Chart(rows),
		"fig4": Fig4Chart(rows),
	} {
		out, err := chart.Render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "FST") || !strings.Contains(out, "ST") {
			t.Errorf("%s chart missing legend:\n%s", name, out)
		}
	}
}
