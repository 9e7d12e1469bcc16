package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// smoke returns a reduced-size copy of w that runs in about a second.
func smoke(w *workload) *workload {
	s := *w
	s.reps = 1
	switch w.name {
	case "fig3-dense":
		s.sizes = []int{50, 200} // 200 keeps the convergence-ratio check live
	default:
		s.sizes = []int{60}
	}
	return &s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmarkJSON pins the metric and workload names the
// program prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind string, code []struct{ name, unit string }, decl []struct{ Name, Unit string }) {
		if len(code) != len(decl) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(code), len(decl))
		}
		for i, m := range code {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s metric %q is not a valid name", kind, m.name)
			}
			if seen[m.name] {
				t.Errorf("metric %q listed twice", m.name)
			}
			seen[m.name] = true
			if m.name != decl[i].Name || m.unit != decl[i].Unit {
				t.Errorf("%s metric %d: program %s [%s], BENCHMARK.json %s [%s]",
					kind, i, m.name, m.unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !metricName.MatchString(w.name) {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, spec.Workloads[i].Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "round", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 30},
		{ID: 2, Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 4, Name: "a.child", Parent: 1, Start: 15, End: 25},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 10, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tr := &tracer{spans: spans}
	if d := tr.selfTotal("a"); d != 10 {
		t.Errorf("selfTotal(a) = %d, want 10", d)
	}
	if d := tr.total("a"); d != 20 {
		t.Errorf("total(a) = %d, want 20", d)
	}
}

// TestPinnedOutputCheck perturbs one pinned value and expects exactly that
// run to be reported as failed.
func TestPinnedOutputCheck(t *testing.T) {
	w := smoke(workloads[0])
	clean := runRound(w, defaultSeed, 0, nil, nil)
	if n := clean.failed(); n != 0 {
		t.Fatalf("unpinned round: %d failed runs: %v", n, clean.records[0].fails)
	}
	pinned := make(map[string]pin)
	for _, rec := range clean.records {
		pinned[rec.key] = pinOf(rec.res)
	}
	if r := runRound(w, defaultSeed, 0, pinned, nil); r.failed() != 0 {
		t.Fatalf("round against its own pins: %d failed runs", r.failed())
	}
	victim := clean.records[len(clean.records)-1].key
	p := pinned[victim]
	p.slots++
	pinned[victim] = p
	r := runRound(w, defaultSeed, 0, pinned, nil)
	if r.failed() != 1 {
		t.Fatalf("one perturbed pin: %d failed runs, want 1", r.failed())
	}
	for _, rec := range r.records {
		if (len(rec.fails) > 0) != (rec.key == victim) {
			t.Errorf("run %s: failures %v", rec.key, rec.fails)
		}
	}
}

func TestPinsCoverDefaultAndHeldOutSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			for k := 0; k < pinnedRounds*w.reps; k++ {
				for _, n := range w.sizes {
					for _, p := range w.protocols {
						key := runKey(w, p.Name(), n, deploymentSeed(seed, k))
						if _, ok := pins[key]; !ok {
							t.Errorf("no pin for %s", key)
						}
					}
				}
			}
		}
	}
}

// TestSmokeWorkloads runs a reduced-size traced measurement of every
// workload and checks that every run passes and every per-layer metric is
// reported, with the layers a workload does not exercise named.
func TestSmokeWorkloads(t *testing.T) {
	for _, full := range workloads {
		w := smoke(full)
		t.Run(w.name, func(t *testing.T) {
			res, info := measure(w, defaultSeed, 0, true)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, info.failures)
			}
			na := make(map[string]bool)
			for _, name := range info.notApplicable {
				na[name] = true
			}
			for _, m := range perLayer {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("metric %s: got %+v, present %v", m.name, got, ok)
					continue
				}
				if got.Value == 0 && !na[m.name] && m.name != "faults.recovery_slots" {
					t.Errorf("metric %s is 0 but not named as not applicable", m.name)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
			}
		})
	}
}
