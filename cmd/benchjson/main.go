// Command benchjson turns `go test -bench` text output (read from stdin)
// into the repository's benchmark record, BENCH.json, and gates pairs of
// benchmarks within one record. `make bench` runs both steps.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 100x -count 5 -benchmem ./internal/core/ | benchjson -o BENCH.json
//	benchjson -in BENCH.json -pair '/off/=/on/' -match 'n=5000$' -max-pair-regress 5
//
// Record mode parses the benchmark result lines; everything else (PASS, ok,
// build noise) is ignored, except that a FAIL line rejects the input, so a
// failed benchmark never leaves a record behind. Names are stored without
// the GOMAXPROCS suffix go test appends ("-8"). Repeats of one name (from
// -count, or a sub-benchmark run again, which go test names "name#01") fold
// into a single row holding the median of each column, so one slow sample
// on a busy host moves no gate. The record names the host: the
// CPU model go test prints, the CPU count, GOMAXPROCS and the Go version.
//
// Pair mode compares benchmarks WITHIN one record. Every benchmark whose
// name contains the CAND fragment (right of "=") is matched to a baseline
// partner — the name with the first CAND occurrence replaced by BASE — and
// the pair's ns/op delta is printed. Because both sides come from the same
// run on the same machine, host speed cancels, so a tight percentage budget
// is meaningful where a comparison against another host's record would
// drown in noise. -match restricts the pairs to candidate names matching a
// regexp; a non-negative -max-pair-regress turns a larger slowdown into a
// nonzero exit.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is the benchmark ledger: the host it was measured on and one
// folded row per benchmark.
type Record struct {
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
}

// Host names the machine a record was measured on.
type Host struct {
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Result is one benchmark: a parsed result line, or the per-column median
// of Runs such lines.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// parseLine parses a `go test -bench` result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// returning ok=false for any line that is not a benchmark result.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Runs: 1, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

// baseName strips the GOMAXPROCS suffix go test appends to benchmark names
// ("BenchmarkStepSlot/seq/n=1000-8" → ".../n=1000") and the "#01" it
// appends to a repeated sub-benchmark name, so repeats fold together.
func baseName(name string) string {
	for _, sep := range []byte{'-', '#'} {
		i := strings.LastIndexByte(name, sep)
		if i <= 0 || i == len(name)-1 || strings.Trim(name[i+1:], "0123456789") != "" {
			continue
		}
		name = name[:i]
	}
	return name
}

// median returns the middle of vals (the mean of the two middles for an
// even count); it reorders vals.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 0 {
		return (vals[m-1] + vals[m]) / 2
	}
	return vals[m]
}

// fold merges the samples of each benchmark name into one row, in
// first-seen order, holding the median of every column.
func fold(samples []Result) []Result {
	byName := map[string][]Result{}
	var order []string
	for _, r := range samples {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		col := func(get func(Result) float64) float64 {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = get(r)
			}
			return median(vals)
		}
		out = append(out, Result{
			Name:        name,
			Runs:        len(rs),
			Iterations:  int64(col(func(r Result) float64 { return float64(r.Iterations) })),
			NsPerOp:     col(func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  col(func(r Result) float64 { return r.BytesPerOp }),
			AllocsPerOp: col(func(r Result) float64 { return r.AllocsPerOp }),
		})
	}
	return out
}

// readRecord parses go test output into a record naming the host
// benchjson runs on, which is the host the piped benchmarks ran on.
func readRecord(in io.Reader) (Record, error) {
	rec := Record{Host: Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}}
	var samples []Result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.Host.CPU = strings.TrimSpace(cpu)
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(strings.TrimSpace(line), "--- FAIL") {
			return Record{}, fmt.Errorf("benchmark run failed: %s", line)
		}
		if r, ok := parseLine(line); ok {
			r.Name = baseName(r.Name)
			samples = append(samples, r)
		}
	}
	if err := sc.Err(); err != nil {
		return Record{}, err
	}
	if len(samples) == 0 {
		return Record{}, fmt.Errorf("no benchmark lines on stdin")
	}
	rec.Results = fold(samples)
	return rec, nil
}

// encode renders a record as indented JSON with one line per result, so
// a ledger diff shows one changed line per changed benchmark.
func (rec Record) encode() ([]byte, error) {
	var b bytes.Buffer
	host, err := json.Marshal(rec.Host)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "{\n  \"host\": %s,\n  \"results\": [\n", host)
	for i, r := range rec.Results {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == len(rec.Results)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", line, sep)
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes(), nil
}

func loadRecord(path string) (Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// pct returns the relative change from old to new in percent.
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// comparePairs diffs baseline/candidate benchmark pairs inside one record.
// pair is "BASE=CAND": every benchmark whose name contains CAND (and
// matches match, when non-nil) is compared against the name with CAND's
// first occurrence replaced by BASE. maxPair is the ns/op regression budget
// in percent (negative disables); the return value counts violations.
func comparePairs(w io.Writer, rec Record, pair string, match *regexp.Regexp, maxPair float64) (violations int, err error) {
	base, cand, ok := strings.Cut(pair, "=")
	if !ok || base == "" || cand == "" {
		return 0, fmt.Errorf("-pair must be 'BASE=CAND', got %q", pair)
	}
	byName := make(map[string]Result, len(rec.Results))
	for _, r := range rec.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-52s %14s %14s %9s\n", "benchmark pair", "base ns/op", "cand ns/op", "time")
	paired := 0
	for _, c := range rec.Results {
		if !strings.Contains(c.Name, cand) || match != nil && !match.MatchString(c.Name) {
			continue
		}
		partner := strings.Replace(c.Name, cand, base, 1)
		b, ok := byName[partner]
		if !ok {
			fmt.Fprintf(w, "%-52s  (no %q partner)\n", c.Name, partner)
			continue
		}
		paired++
		dt := pct(b.NsPerOp, c.NsPerOp)
		mark := ""
		if maxPair >= 0 && dt > maxPair {
			mark = "  PAIR REGRESSION"
			violations++
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+8.1f%%%s\n", c.Name, b.NsPerOp, c.NsPerOp, dt, mark)
	}
	if paired == 0 {
		return violations, fmt.Errorf("no %q/%q pairs found", base, cand)
	}
	return violations, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	inPath := flag.String("in", "", "JSON record for within-record -pair mode")
	pairStr := flag.String("pair", "", "within-record pair gate: 'BASE=CAND' name fragments (requires -in)")
	matchStr := flag.String("match", "", "compare only candidates whose name matches this regexp")
	maxPair := flag.Float64("max-pair-regress", -1, "fail if a -pair candidate's ns/op exceeds its baseline by more than this percent (negative disables)")
	flag.Parse()

	if (*inPath == "") != (*pairStr == "") {
		fail(fmt.Errorf("-in and -pair must be given together"))
	}
	if *inPath != "" {
		var match *regexp.Regexp
		if *matchStr != "" {
			var err error
			if match, err = regexp.Compile(*matchStr); err != nil {
				fail(fmt.Errorf("-match: %w", err))
			}
		}
		rec, err := loadRecord(*inPath)
		if err != nil {
			fail(err)
		}
		violations, err := comparePairs(os.Stdout, rec, *pairStr, match, *maxPair)
		if err != nil {
			fail(fmt.Errorf("%s: %w", *inPath, err))
		}
		if violations > 0 {
			fail(fmt.Errorf("%d pair regression(s) above threshold", violations))
		}
		return
	}

	rec, err := readRecord(os.Stdin)
	if err != nil {
		fail(err)
	}
	enc, err := rec.encode()
	if err != nil {
		fail(err)
	}
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fail(err)
	}
}
