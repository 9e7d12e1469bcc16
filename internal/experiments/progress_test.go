package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// syncBuffer makes a bytes.Buffer safe for the sweep workers' concurrent
// progress writes in tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// decodeProgress parses a JSONL progress stream, failing on any line that
// is not a complete, valid event (interleaved writes would corrupt lines).
func decodeProgress(t *testing.T, s string) []ProgressEvent {
	t.Helper()
	var evs []ProgressEvent
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		var ev ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestRunSweepProgressStream(t *testing.T) {
	var buf syncBuffer
	opts := smallOptions()
	opts.Workers = 4
	opts.Progress = &buf
	if _, err := RunSweep(opts); err != nil {
		t.Fatal(err)
	}
	evs := decodeProgress(t, buf.String())
	// 2 sizes x 2 seeds x 2 protocols.
	if len(evs) != 8 {
		t.Fatalf("got %d progress events, want 8", len(evs))
	}
	seen := map[string]int{}
	for i, ev := range evs {
		if ev.Schema != ProgressEventSchema {
			t.Errorf("event %d: schema %d, want %d", i, ev.Schema, ProgressEventSchema)
		}
		if ev.Sweep != "sweep" {
			t.Errorf("event %d: sweep %q", i, ev.Sweep)
		}
		if ev.Done != i+1 || ev.Total != 8 {
			t.Errorf("event %d: done/total %d/%d, want %d/8 (lines must serialize in completion order)",
				i, ev.Done, ev.Total, i+1)
		}
		if ev.Cached {
			t.Errorf("event %d: cached without a cache attached", i)
		}
		seen[ev.Protocol]++
	}
	if seen["FST"] != 4 || seen["ST"] != 4 {
		t.Errorf("protocol mix %v, want 4 FST + 4 ST", seen)
	}
}

// TestRunSweepProgressReportsCacheHits pins the cached flag for every
// driver: a job all of whose runs (reference and derived) were served from
// the result cache reports cached.
func TestRunSweepProgressReportsCacheHits(t *testing.T) {
	for _, d := range sweepDrivers {
		t.Run(d.name, func(t *testing.T) {
			opts := smallOptions()
			opts.Sizes = []int{20}
			opts.Cache = NewResultCache(0, "")
			if _, err := d.run(opts); err != nil {
				t.Fatal(err)
			}
			var buf syncBuffer
			opts.Progress = &buf
			if _, err := d.run(opts); err != nil {
				t.Fatal(err)
			}
			evs := decodeProgress(t, buf.String())
			jobs := len(opts.Sizes) * opts.Seeds * d.perSeed
			if len(evs) != jobs {
				t.Fatalf("got %d events, want %d", len(evs), jobs)
			}
			for i, ev := range evs {
				if ev.Sweep != d.name {
					t.Errorf("event %d: sweep label %q, want %q", i, ev.Sweep, d.name)
				}
				if !ev.Cached {
					t.Errorf("event %d: second identical sweep should be fully cached", i)
				}
			}
			last := evs[len(evs)-1]
			if last.CacheHits < uint64(jobs) {
				t.Errorf("final event reports %d cumulative hits, want >= %d", last.CacheHits, jobs)
			}
		})
	}
}

func TestRecoverySweepProgressMarksPrefixResume(t *testing.T) {
	var buf syncBuffer
	opts := Options{
		Sizes: []int{30}, Seeds: 2, BaseSeed: 1,
		PrefixSlots: -1, // auto cadence: faulted branches resume mid-run
		Progress:    &buf,
	}
	if _, err := RunRecoverySweep(opts); err != nil {
		t.Fatal(err)
	}
	evs := decodeProgress(t, buf.String())
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (1 size x 2 seeds x 2 protocols)", len(evs))
	}
	resumed := 0
	for _, ev := range evs {
		if ev.Sweep != "recovery" {
			t.Errorf("sweep label %q, want recovery", ev.Sweep)
		}
		if ev.PrefixResumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("no job reported a prefix resume despite auto checkpoint cadence")
	}
}

func TestNilProgressReporterIsInert(t *testing.T) {
	if p := newProgressReporter(nil, "sweep", 3, nil); p != nil {
		t.Fatal("nil writer should yield a nil (disabled) reporter")
	}
	var p *progressReporter
	p.jobDone(10, "FST", false, false) // must not panic
}
