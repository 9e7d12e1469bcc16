package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// A nil accumulator is the disabled state: every probe must be callable and
// inert, Report must yield nil, Publish must be a no-op.
func TestRunStatsNilSafe(t *testing.T) {
	var rs *RunStats
	if rs.Enabled() {
		t.Error("nil RunStats reports enabled")
	}
	rs.AddPhase(PhasePlan, time.Millisecond)
	rs.SlotStepped(3)
	rs.SlotsSkipped(5)
	rs.SetShards(4)
	rs.ShardWorked(0, time.Millisecond)
	rs.AddCheckpoint(time.Millisecond)
	rs.AddEncode(100, time.Millisecond)
	if rs.Report() != nil {
		t.Error("nil RunStats produced a report")
	}
	var v Vars
	rs.Publish(&v)
	if v.PhaseNanos[PhasePlan].Load() != 0 {
		t.Error("nil Publish moved registry counters")
	}
	(*RunStats)(nil).Publish(nil) // both sides nil
}

func TestRunStatsReport(t *testing.T) {
	rs := NewRunStats()
	rs.AddPhase(PhaseAdvance, 100*time.Millisecond)
	rs.AddPhase(PhasePlan, 600*time.Millisecond)
	rs.AddPhase(PhaseDeliver, 250*time.Millisecond)
	rs.AddPhase(PhaseRefresh, 50*time.Millisecond)
	rs.AddCheckpoint(400 * time.Millisecond) // excluded from the denominator
	rs.AddEncode(1234, 30*time.Millisecond)
	for i := 0; i < 500; i++ {
		rs.SlotStepped(0)
	}
	rs.SlotStepped(200000) // overflow bucket
	rs.SlotsSkipped(7)
	rs.SetShards(2)
	rs.ShardWorked(0, 300*time.Millisecond)
	rs.ShardWorked(1, 100*time.Millisecond)

	rep := rs.Report()
	if want := int64(time.Second); rep.MeasuredNanos != want {
		t.Errorf("MeasuredNanos %d, want %d (checkpoint must not count)", rep.MeasuredNanos, want)
	}
	var sum float64
	for _, p := range rep.Phases {
		sum += p.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("phase shares sum to %v, want 1", sum)
	}
	if rep.Phases[0].Phase != "plan" {
		t.Errorf("phases not sorted largest-first: %v first", rep.Phases[0].Phase)
	}
	if last := rep.Phases[len(rep.Phases)-1]; last.Phase != "checkpoint" || last.Share != 0 {
		t.Errorf("checkpoint phase not last with zero share: %+v", last)
	}
	if rep.SteppedSlots != 501 || rep.SkippedSlots != 200007 {
		t.Errorf("slots (%d stepped, %d skipped), want (501, 200007)", rep.SteppedSlots, rep.SkippedSlots)
	}
	// max busy 300ms, mean 200ms -> imbalance 1.5
	if rep.Shard == nil || math.Abs(rep.Shard.Imbalance-1.5) > 1e-9 {
		t.Errorf("shard imbalance %+v, want 1.5", rep.Shard)
	}
	if rep.SkipSpan == nil || rep.SkipSpan.Count != 501 {
		t.Fatalf("skip-span stat %+v, want 501 observations", rep.SkipSpan)
	}
	if first := rep.SkipSpan.Buckets[0]; first.LE != "1" || first.Count != 500 {
		t.Errorf("first bucket %+v, want le=1 count=500", first)
	}
	last := rep.SkipSpan.Buckets[len(rep.SkipSpan.Buckets)-1]
	if last.LE != "+Inf" || last.Count != 501 {
		t.Errorf("overflow bucket %+v, want le=+Inf count=501", last)
	}
	if rep.Checkpoint == nil || rep.Checkpoint.Captures != 1 || rep.Checkpoint.Encodes != 1 ||
		rep.Checkpoint.EncodeBytes != 1234 {
		t.Errorf("checkpoint stat %+v", rep.Checkpoint)
	}

	// The report must survive encoding/json — the overflow bound is a
	// string precisely because +Inf is not a JSON number.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report not JSON-serializable: %v", err)
	}
	var back RunStatsReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.MeasuredNanos != rep.MeasuredNanos || len(back.Phases) != len(rep.Phases) {
		t.Error("report round-trip lost fields")
	}
}

func TestRunStatsFormatTable(t *testing.T) {
	rs := NewRunStats()
	rs.AddPhase(PhaseAdvance, 100*time.Millisecond)
	rs.AddPhase(PhasePlan, 900*time.Millisecond)
	rs.AddCheckpoint(50 * time.Millisecond)
	rs.SlotStepped(9)
	out := rs.Report().FormatTable()
	for _, want := range []string{"engine time attribution", "1 stepped slots (9 inert slots skipped)",
		"plan", "advance", "90.0%", "10.0%", "skip span: mean 9.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The checkpoint phase row renders a dash, not a share: it sits outside
	// the slot pipeline, so including it would break the 100% sum.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "checkpoint ") &&
			(strings.Contains(line, "%") || !strings.Contains(line, "-")) {
			t.Errorf("checkpoint phase row shows a share: %q", line)
		}
	}
}

func TestRunStatsPublish(t *testing.T) {
	rs := NewRunStats()
	rs.AddPhase(PhasePlan, 2*time.Second)
	rs.SlotStepped(4)
	rs.SlotStepped(0)
	rs.AddEncode(500, time.Second)

	var v Vars
	rs.Publish(&v)
	if got := v.PhaseNanos[PhasePlan].Load(); got != uint64(2*time.Second) {
		t.Errorf("published plan nanos %d", got)
	}
	if v.SkipSpan.Count() != 2 {
		t.Error("skip-span histogram did not merge")
	}
	if v.CheckpointEncode.Count() != 1 || math.Abs(v.CheckpointEncode.Sum()-1) > 1e-9 {
		t.Errorf("encode summary (%d, %v), want (1, 1s)", v.CheckpointEncode.Count(), v.CheckpointEncode.Sum())
	}
	if v.CheckpointBytes.Load() != 500 {
		t.Errorf("encode bytes %d, want 500", v.CheckpointBytes.Load())
	}

	snap := v.Snapshot()
	if _, ok := snap["phase_nanos"]; !ok {
		t.Error("snapshot missing phase_nanos")
	}
	if snap["skip_span_observations"] != uint64(2) {
		t.Errorf("snapshot skip_span_observations = %v", snap["skip_span_observations"])
	}
}

func TestHistogramBucketMapping(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2},
		{65536, histBuckets - 2}, {65537, histBuckets - 1}, {1e12, histBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Every sample in the exposition must belong to a family announced by a
// preceding # HELP/# TYPE pair, histograms must end in a +Inf bucket equal
// to their _count, and counters must carry the _total suffix Prometheus
// naming expects (the two legacy gauges are exempt by name).
func TestWriteMetricsExposition(t *testing.T) {
	var v Vars
	v.RecordResult(100, true, 50, 100, 7)
	rs := NewRunStats()
	rs.AddPhase(PhasePlan, time.Second)
	rs.SlotStepped(3)
	rs.AddEncode(100, time.Millisecond)
	rs.Publish(&v)
	v.SetGeometryCacheStats(4, 2)
	v.SetResultCacheStats(10, 5, 1)

	var sb strings.Builder
	if err := v.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	types := map[string]string{} // family -> TYPE
	helps := map[string]bool{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("HELP without text: %q", line)
			}
			helps[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary":
			default:
				t.Errorf("unknown TYPE %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		var name string
		var value float64
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &value); err != nil {
				t.Errorf("unparseable sample %q: %v", line, err)
			}
		}
		samples[line[:strings.IndexAny(line, "{ ")]] = value
		// Resolve the family: histogram/summary samples use suffixed names.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suf); f != name {
				if _, ok := types[f]; ok {
					family = f
				}
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Errorf("sample %q has no TYPE header", line)
			continue
		}
		if !helps[family] {
			t.Errorf("sample %q has no HELP header", line)
		}
		if typ == "counter" && !strings.HasSuffix(family, "_total") {
			t.Errorf("counter %q lacks _total suffix", family)
		}
	}

	// Histogram integrity: the +Inf bucket carries the full count.
	if !strings.Contains(out, `d2dsim_engine_skip_span_bucket{le="+Inf"} 1`) {
		t.Error("skip-span histogram missing +Inf bucket with count 1")
	}
	if samples["d2dsim_engine_skip_span_count"] != 1 {
		t.Errorf("skip-span _count = %v, want 1", samples["d2dsim_engine_skip_span_count"])
	}
	for _, gone := range []string{"d2dsim_engine_path_slots_total", "d2dsim_event_firequeue_depth", "d2dsim_event_pop_batch"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries the retired %s family", gone)
		}
	}
	for _, want := range []string{
		`d2dsim_engine_phase_seconds_total{phase="plan"} 1`,
		`d2dsim_engine_skip_span_bucket{le="4"} 1`,
		"d2dsim_checkpoint_encode_seconds_sum 0.001",
		"d2dsim_geometry_cache_hits_total 4",
		"d2dsim_result_cache_evictions_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
