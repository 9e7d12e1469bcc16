package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkBroadcastCached/n=1000-8   \t  50000\t 23456 ns/op\t 0 B/op\t 0 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognised")
	}
	if r.Name != "BenchmarkBroadcastCached/n=1000-8" || r.Runs != 1 || r.Iterations != 50000 ||
		r.NsPerOp != 23456 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v", r)
	}

	if _, ok := parseLine("ok  \trepro/internal/core\t12.3s"); ok {
		t.Error("ok line parsed as benchmark")
	}
	if _, ok := parseLine("PASS"); ok {
		t.Error("PASS parsed as benchmark")
	}
	if _, ok := parseLine("BenchmarkBroken notanumber 5 ns/op"); ok {
		t.Error("malformed iteration count accepted")
	}

	// Without -benchmem there are no alloc columns.
	r, ok = parseLine("BenchmarkStepSlot/seq/n=200-8 \t 9999 \t 100.5 ns/op")
	if !ok || r.NsPerOp != 100.5 || r.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v ok=%v", r, ok)
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkStepSlot/seq/n=1000-8":  "BenchmarkStepSlot/seq/n=1000",
		"BenchmarkStepSlot/seq/n=1000-32": "BenchmarkStepSlot/seq/n=1000",
		"BenchmarkRunFST/event/n=200":     "BenchmarkRunFST/event/n=200",
		"BenchmarkOdd-suffix":             "BenchmarkOdd-suffix",
		"BenchmarkNet/off/n=5000#03-2":    "BenchmarkNet/off/n=5000",
		"BenchmarkNet/off/n=5000#12":      "BenchmarkNet/off/n=5000",
		"BenchmarkOdd#tag-2":              "BenchmarkOdd#tag",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

// -count repeats fold into one row per name, in first-seen order, holding
// the median of every column: one outlier sample moves nothing.
func TestReadRecordFoldsRepeatsByMedian(t *testing.T) {
	out := `goos: linux
cpu: Test CPU @ 1GHz
BenchmarkA/off/n=5-2   100   1000 ns/op   10 B/op   0 allocs/op
BenchmarkA/off/n=5#01-2   100   9000 ns/op   10 B/op   5 allocs/op
BenchmarkA/off/n=5-2   100   1100 ns/op   12 B/op   0 allocs/op
BenchmarkB-2           3     50 ns/op
BenchmarkB-2           3     70 ns/op
PASS
ok  	repro/x	1.0s
`
	rec, err := readRecord(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Host.CPU != "Test CPU @ 1GHz" || rec.Host.NumCPU < 1 || rec.Host.GOMAXPROCS < 1 || rec.Host.GoVersion == "" {
		t.Errorf("host = %+v", rec.Host)
	}
	want := []Result{
		{Name: "BenchmarkA/off/n=5", Runs: 3, Iterations: 100, NsPerOp: 1100, BytesPerOp: 10, AllocsPerOp: 0},
		{Name: "BenchmarkB", Runs: 2, Iterations: 3, NsPerOp: 60},
	}
	if len(rec.Results) != len(want) {
		t.Fatalf("results = %+v", rec.Results)
	}
	for i := range want {
		if rec.Results[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, rec.Results[i], want[i])
		}
	}

	// The encoding round-trips, one line per result.
	enc, err := rec.encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadRecord(path)
	if err != nil || back.Host != rec.Host || len(back.Results) != 2 || back.Results[1] != want[1] {
		t.Errorf("round trip: %+v, %v", back, err)
	}
	if lines := strings.Count(string(enc), "\n"); lines != 5+len(want) {
		t.Errorf("encoding has %d lines, want %d:\n%s", lines, 5+len(want), enc)
	}
}

// A failed run leaves no record, and neither does empty input.
func TestReadRecordRejectsFailures(t *testing.T) {
	for name, in := range map[string]string{
		"failed benchmark": "BenchmarkA-2  10  5 ns/op\n--- FAIL: BenchmarkB\nFAIL\n",
		"build failure":    "FAIL\trepro/internal/core [build failed]\n",
		"no benchmarks":    "PASS\nok  \trepro/x\t1.0s\n",
	} {
		if _, err := readRecord(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestComparePairs(t *testing.T) {
	rec := Record{Results: []Result{
		{Name: "BenchmarkNet/off/n=200", NsPerOp: 100},
		{Name: "BenchmarkNet/degen/n=200", NsPerOp: 150},
		{Name: "BenchmarkNet/off/n=5000", NsPerOp: 1000},
		{Name: "BenchmarkNet/degen/n=5000", NsPerOp: 1040},
		{Name: "BenchmarkNet/degen/n=9", NsPerOp: 1},
		{Name: "BenchmarkSweep/cold", NsPerOp: 700},
		{Name: "BenchmarkSweep/shared", NsPerOp: 450},
	}}
	cases := []struct {
		pair, match string
		max         float64
		violations  int
	}{
		{"/off/=/degen/", "", -1, 0},          // report only
		{"/off/=/degen/", "", 5, 1},           // +50% at n=200 trips, +4% does not
		{"/off/=/degen/", "n=5000$", 5, 0},    // -match scopes the gate
		{"/off/=/degen/", "n=5000$", 3, 1},    // +4% over a 3% budget
		{"/cold=/shared", "", 0, 0},           // shared no slower than cold
		{"/shared=/cold", "", 0, 1},           // the reverse pair is slower
		{"/off/=/degen/", "n=(200|9)$", 5, 1}, // an unpartnered candidate is reported, not counted
	}
	for _, tc := range cases {
		var match *regexp.Regexp
		if tc.match != "" {
			match = regexp.MustCompile(tc.match)
		}
		var buf bytes.Buffer
		v, err := comparePairs(&buf, rec, tc.pair, match, tc.max)
		if err != nil || v != tc.violations {
			t.Errorf("pair %q match %q max %v: violations=%d err=%v, want %d\n%s",
				tc.pair, tc.match, tc.max, v, err, tc.violations, buf.String())
		}
	}
}

func TestComparePairsRejectsBadInput(t *testing.T) {
	rec := Record{Results: []Result{{Name: "BenchmarkX/off", NsPerOp: 1}}}
	var buf bytes.Buffer
	for _, pair := range []string{"off", "=/on", "/off="} {
		if _, err := comparePairs(&buf, rec, pair, nil, -1); err == nil {
			t.Errorf("malformed -pair %q accepted", pair)
		}
	}
	if _, err := comparePairs(&buf, rec, "/off=/on", nil, -1); err == nil {
		t.Error("a record without pairs passed")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRecord(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := loadRecord(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
