package repro

// End-to-end integration tests across the public API, the manifest
// pipeline, and the trace tooling — the paths a downstream user strings
// together.

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
)

func TestManifestPipelineEndToEnd(t *testing.T) {
	// Save a manifest, load it back, run from it, and match the direct run.
	path := filepath.Join(t.TempDir(), "run.json")
	m := DefaultManifest(20, 9)
	m.MaxSlots = 60000
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := loaded.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	fromManifest, err := Run(ST(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := PaperConfig(20, 9)
	direct.MaxSlots = 60000
	fromCode, err := Run(ST(), direct)
	if err != nil {
		t.Fatal(err)
	}
	if fromManifest.ConvergenceSlots != fromCode.ConvergenceSlots ||
		fromManifest.Counters != fromCode.Counters {
		t.Error("manifest-driven and direct runs diverge")
	}
}

func TestTracePipelineEndToEnd(t *testing.T) {
	cfg := PaperConfig(12, 4)
	cfg.MaxSlots = 60000
	rec := trace.NewRecorder(100000)
	cfg.EventTrace = func(ev trace.Event) {
		if ev.Kind == trace.KindFire {
			rec.Add(ev)
		}
	}
	res, err := Run(ST(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	raster := trace.Raster(rec.Events(), 12, res.ConvergenceSlots-300, res.ConvergenceSlots, 10)
	if !strings.Contains(raster, "UE0") {
		t.Fatal("raster missing rows")
	}
	// Post-convergence the final fires align: the last column region must
	// show marks for every device (vertical stripe).
	lines := strings.Split(strings.TrimRight(raster, "\n"), "\n")[1:]
	if len(lines) != 12 {
		t.Fatalf("raster rows = %d", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "|") {
			t.Errorf("device without fires in the final window: %q", l)
		}
	}
}

func TestAllProtocolsBuildEquivalentTopology(t *testing.T) {
	// ST's distributed tree and the BS's centrally computed tree optimize
	// the same objective on the same discovery data; their weights (in
	// true mean RSSI) should agree within the single-sample noise floor.
	cfg := PaperConfig(30, 6)
	cfg.MaxSlots = 60000

	envST, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := ST().Run(envST)
	envBS, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := BSAssisted().Run(envBS)
	if !st.Converged || !bs.Converged {
		t.Fatal("both protocols should converge")
	}
	if !graph.SpanningTreeOf(30, st.TreeEdges) || !graph.SpanningTreeOf(30, bs.TreeEdges) {
		t.Fatal("both should produce spanning trees")
	}
	priceOf := func(env *Env, edges []graph.Edge) float64 {
		var w float64
		for _, e := range edges {
			w += float64(env.Transport.MeanRSSI(e.U, e.V))
		}
		return w
	}
	wST := priceOf(envST, st.TreeEdges)
	wBS := priceOf(envBS, bs.TreeEdges)
	// Both negative dBm sums; agreement within 10%.
	if wST/wBS > 1.1 || wBS/wST > 1.1 {
		t.Errorf("tree weights diverge: ST %v vs BS %v", wST, wBS)
	}
}
