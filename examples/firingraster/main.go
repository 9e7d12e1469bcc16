// Firing raster: synchrony made visible. Runs the ST protocol on 24 UEs
// and renders when each device fired, early in the run (scattered marks —
// every oscillator on its own random phase) versus the final periods
// (vertical stripes — the whole network flashing in the same slot, like a
// tree full of fireflies).
//
//	go run ./examples/firingraster
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	const n = 24
	cfg := core.PaperConfig(n, 9)

	rec := trace.NewRecorder(200000)
	cfg.EventTrace = func(ev trace.Event) {
		if ev.Kind == trace.KindFire {
			rec.Add(ev)
		}
	}

	env, err := core.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := core.ST{}.Run(env)
	fmt.Println(res)
	if !res.Converged {
		log.Fatal("run did not converge; try another seed")
	}

	events := rec.Events()
	fmt.Println("\n--- first 6 periods: disorder ---")
	fmt.Print(trace.Raster(events, n, 0, 600, 10))
	end := res.ConvergenceSlots
	start := end - 600
	if start < 0 {
		start = 0
	}
	fmt.Println("\n--- last 6 periods: synchrony (vertical stripes) ---")
	fmt.Print(trace.Raster(events, n, start, end, 10))
}
