package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

// smallOptions keeps sweep tests fast: tiny sizes, two seeds.
func smallOptions() Options {
	return Options{
		Sizes:    []int{20, 40},
		Seeds:    2,
		BaseSeed: 1,
		MaxSlots: units.Slot(60000),
	}
}

func TestRunSweepShape(t *testing.T) {
	rows, err := RunSweep(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].N != 20 || rows[1].N != 40 {
		t.Errorf("rows not ordered by N: %d, %d", rows[0].N, rows[1].N)
	}
	for _, r := range rows {
		if r.TimeFST.N != 2 || r.TimeST.N != 2 {
			t.Errorf("n=%d: wrong repetition count %d/%d", r.N, r.TimeFST.N, r.TimeST.N)
		}
		if r.ConvFST != 2 || r.ConvST != 2 {
			t.Errorf("n=%d: convergence %d/%d, want 2/2", r.N, r.ConvFST, r.ConvST)
		}
		if r.MsgFST.Mean <= 0 || r.MsgST.Mean <= 0 {
			t.Errorf("n=%d: zero messages", r.N)
		}
		if r.TreePhases.Mean < 1 {
			t.Errorf("n=%d: no merge phases recorded", r.N)
		}
	}
}

// sweepDrivers runs sweep drivers behind one signature, so the contracts of
// the runner they share are checked once per driver. perSeed is the number
// of jobs per size and seed (variants × protocols); threeway stands in for
// the drivers that fold through runPoints.
var sweepDrivers = []struct {
	name    string
	perSeed int
	run     func(Options) (any, error)
}{
	{"sweep", 2, func(o Options) (any, error) { return RunSweep(o) }},
	{"recovery", 2, func(o Options) (any, error) { return RunRecoverySweep(o) }},
	{"delay", 2 * len(delayFractions), func(o Options) (any, error) { return RunDelaySweep(o) }},
	{"threeway", 3, func(o Options) (any, error) { return ThreeWay(o) }},
}

// TestRunSweepDeterministicAcrossWorkerCounts pins rows bit-identical at any
// worker count. It needs three or more seeds per point: Summarize sums floats
// in input order, and a+b is exact in either order, so only a longer sum
// shows a fold that follows completion order instead of job order.
func TestRunSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, d := range sweepDrivers {
		t.Run(d.name, func(t *testing.T) {
			opts := smallOptions()
			opts.Seeds = 4
			opts.Workers = 1
			serial, err := d.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 4
			for rep := 0; rep < 3; rep++ {
				parallel, err := d.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("repeat %d: rows differ between 1 and 4 workers:\n%+v\n%+v",
						rep, serial, parallel)
				}
			}
		})
	}
}

func TestRunSweepEmpty(t *testing.T) {
	for _, d := range sweepDrivers {
		t.Run(d.name, func(t *testing.T) {
			if _, err := d.run(Options{}); err == nil {
				t.Error("empty sweep should error")
			}
			if _, err := d.run(Options{Sizes: []int{10}, Seeds: 0}); err == nil {
				t.Error("zero seeds should error")
			}
		})
	}
}

// TestRunDelaySweepShape pins the delay grid — rows ordered by (N,
// DelaySlots) over the delays {0, T/8, T/4, T/2} — and the lockstep
// cross-check the zero-delay row provides: with every run converged, its
// convergence summaries equal RunSweep's for the same sizes and seeds.
func TestRunDelaySweepShape(t *testing.T) {
	opts := smallOptions()
	rows, err := RunDelaySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := RunSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	T := core.PaperConfig(20, 1).PeriodSlots
	delays := []int{0, T / 8, T / 4, T / 2}
	if len(rows) != len(opts.Sizes)*len(delays) {
		t.Fatalf("got %d rows, want %d", len(rows), len(opts.Sizes)*len(delays))
	}
	for i, r := range rows {
		n, d := opts.Sizes[i/len(delays)], delays[i%len(delays)]
		if r.N != n || r.DelaySlots != d {
			t.Fatalf("row %d is (n=%d, delay=%d), want (%d, %d)", i, r.N, r.DelaySlots, n, d)
		}
		if r.ConvFST.N != r.ConvergedFST || r.ConvST.N != r.ConvergedST {
			t.Errorf("row %d: summaries over %d/%d runs, converged %d/%d",
				i, r.ConvFST.N, r.ConvST.N, r.ConvergedFST, r.ConvergedST)
		}
		if d != 0 {
			continue
		}
		l := lock[i/len(delays)]
		if r.ConvergedFST != opts.Seeds || r.ConvergedST != opts.Seeds || l.ConvFST != opts.Seeds || l.ConvST != opts.Seeds {
			t.Fatalf("n=%d: not every lockstep run converged; the cross-check needs them all", n)
		}
		if r.ConvFST != l.TimeFST || r.ConvST != l.TimeST {
			t.Errorf("n=%d: zero-delay row differs from RunSweep:\nFST %+v vs %+v\nST  %+v vs %+v",
				n, r.ConvFST, l.TimeFST, r.ConvST, l.TimeST)
		}
	}
}

func TestFigureTables(t *testing.T) {
	rows, err := RunSweep(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Fig3Table(rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig. 3") || !strings.Contains(b.String(), "20") {
		t.Errorf("Fig3 table wrong: %q", b.String())
	}
	b.Reset()
	if err := Fig4Table(rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig. 4") {
		t.Error("Fig4 table missing title")
	}
	b.Reset()
	if err := OpsTable(rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Ranking operations") {
		t.Error("Ops table missing title")
	}
}

func TestTableIContents(t *testing.T) {
	var b strings.Builder
	if err := TableI().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"23.00 dBm", "-95.00 dBm", "50 devices in 100 m*100 m areas",
		"UMi (NLOS)", "10 dB", "1 ms",
		"PL = 4.35 + 25log10(d) if d < 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Tree(t *testing.T) {
	f, err := Fig2Tree(17, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Res.TreeEdges) != 16 {
		t.Fatalf("17-UE tree has %d edges, want 16", len(f.Res.TreeEdges))
	}
	if len(f.Depth) != 17 {
		t.Errorf("depth map covers %d nodes, want 17", len(f.Depth))
	}
	out := f.Render()
	if !strings.Contains(out, "[head]") || !strings.Contains(out, "UE") {
		t.Errorf("render missing structure:\n%s", out)
	}
	// Every device appears in the rendering.
	for i := 0; i < 17; i++ {
		if !strings.Contains(out, "UE"+itoa(i)) {
			t.Errorf("UE%d missing from rendering", i)
		}
	}
	if _, err := Fig2Tree(1, 1); err == nil {
		t.Error("n=1 should error")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestAblationShadowing(t *testing.T) {
	tb, err := AblationShadowing(fixedOptions(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Errorf("shadowing ablation rows = %d, want 3", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Ablation A") {
		t.Error("missing title")
	}
}

func TestAblationTopology(t *testing.T) {
	tb, err := AblationTopology(fixedOptions(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("topology ablation rows = %d, want 2", tb.Rows())
	}
	if _, err := AblationTopology(Options{Sizes: []int{20, 30}, Seeds: 1}); err == nil {
		t.Error("a fixed-size ablation given two sizes should error")
	}
}

func TestAblationSearch(t *testing.T) {
	tb, err := AblationSearch([]int{16, 64}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("search ablation rows = %d, want 2", tb.Rows())
	}
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "speedup") {
		t.Error("CSV missing header")
	}
}
