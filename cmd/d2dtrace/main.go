// Command d2dtrace runs a protocol with fire tracing enabled and renders
// the firing raster — the visual proof of synchrony (scattered marks
// collapsing into vertical stripes) — plus an optional event log, a
// streaming JSONL export for external tooling, and replay of a previously
// exported stream.
//
//	d2dtrace -n 24 -proto ST -periods 6
//	d2dtrace -n 24 -proto FST -events | head -50
//	d2dtrace -n 24 -proto ST -jsonl run.jsonl
//	d2dtrace -replay run.jsonl -n 24
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	var (
		n       = flag.Int("n", 24, "number of UEs")
		seed    = flag.Int64("seed", 9, "run seed")
		proto   = flag.String("proto", "ST", "protocol: FST, ST or BS")
		periods = flag.Int("periods", 6, "periods to show at each end of the run")
		events  = flag.Bool("events", false, "dump the raw event log instead of rasters")
		jsonl   = flag.String("jsonl", "", "stream every fire and protocol event (schema-versioned JSONL) to this file")
		replay  = flag.String("replay", "", "render rasters from a JSONL stream instead of running (use -n and -periods to shape the raster)")
	)
	flag.Parse()

	var err error
	if *replay != "" {
		err = replayJSONL(*replay, *n, *periods)
	} else {
		err = run(*n, *seed, *proto, *periods, *events, *jsonl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2dtrace:", err)
		os.Exit(1)
	}
}

func run(n int, seed int64, proto string, periods int, events bool, jsonlPath string) error {
	cfg := core.PaperConfig(n, seed)
	// The bounded in-memory ring the rasters read keeps the fires only.
	// The JSONL sink streams fires and protocol events (merge/join/churn/
	// converge) in callback order — the unbounded export external tools
	// replay.
	rec := trace.NewRecorder(500000)
	var jw *trace.JSONLWriter
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = trace.NewJSONLWriter(f)
	}
	cfg.EventTrace = func(ev trace.Event) {
		if ev.Kind == trace.KindFire {
			rec.Add(ev)
		}
		if jw != nil {
			jw.Write(ev)
		}
	}

	env, err := core.NewEnv(cfg)
	if err != nil {
		return err
	}
	var p core.Protocol
	switch strings.ToUpper(proto) {
	case "FST":
		p = core.FST{}
	case "ST":
		p = core.ST{}
	case "BS":
		p = core.Centralized{}
	default:
		return fmt.Errorf("unknown protocol %q", proto)
	}
	res := p.Run(env)
	fmt.Println(res)
	if jw != nil {
		if err := jw.Flush(); err != nil {
			return err
		}
		fmt.Printf("streamed %d events to %s\n", jw.Count(), jsonlPath)
	}
	if !res.Converged {
		return fmt.Errorf("run did not converge")
	}

	if events {
		if d := rec.Dropped(); d > 0 {
			fmt.Printf("(ring full: first %d events lost)\n", d)
		}
		_, err := rec.WriteTo(os.Stdout)
		return err
	}

	if d := rec.Dropped(); d > 0 {
		fmt.Printf("(ring full: first %d events lost; early rasters may be incomplete)\n", d)
	}
	window := units.Slot(periods * cfg.PeriodSlots)
	evs := rec.Events()
	fmt.Printf("\n--- first %d periods ---\n", periods)
	fmt.Print(trace.Raster(evs, n, 0, window, 10))
	start := res.ConvergenceSlots - window
	if start < 0 {
		start = 0
	}
	fmt.Printf("\n--- last %d periods before convergence ---\n", periods)
	fmt.Print(trace.Raster(evs, n, start, res.ConvergenceSlots, 10))
	return nil
}

// replayJSONL re-renders the rasters from an exported stream: the proof
// that the JSONL file alone carries the run's observable story.
func replayJSONL(path string, n, periods int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s holds no events", path)
	}
	var last units.Slot
	converged := units.Slot(-1)
	for _, e := range evs {
		if e.Slot > last {
			last = e.Slot
		}
		if e.Kind == trace.KindConverge {
			converged = e.Slot
		}
	}
	fmt.Printf("replaying %d events from %s (last slot %d)\n", len(evs), path, last)
	window := units.Slot(periods * 100)
	fmt.Printf("\n--- first %d periods ---\n", periods)
	fmt.Print(trace.Raster(evs, n, 0, window, 10))
	end := last
	if converged >= 0 {
		end = converged
		fmt.Printf("\n--- last %d periods before convergence (slot %d) ---\n", periods, converged)
	} else {
		fmt.Printf("\n--- last %d periods of the stream ---\n", periods)
	}
	start := end - window
	if start < 0 {
		start = 0
	}
	fmt.Print(trace.Raster(evs, n, start, end, 10))
	return nil
}
