package core

import (
	"fmt"
	"testing"

	"repro/internal/asyncnet"
)

// BenchmarkStepSlotNet measures what the bounded-asynchrony message runtime
// costs the steady-state slot loop. off is the pre-asynchrony baseline (no
// plan at all), degen attaches a degenerate plan — which by contract never
// constructs the transport queue, so `make bench` gates it within 5% of off
// at n=5000 — and on runs the full adversary (T/4 max delay, reordering, 1%
// duplication), recorded ungated as the price of the actual fault model.
func BenchmarkStepSlotNet(b *testing.B) {
	for _, n := range []int{200, 5000} {
		var cases []slotCase
		for _, mode := range []string{"off", "degen", "on"} {
			cfg := PaperConfig(n, 7)
			switch mode {
			case "degen":
				cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema}
			case "on":
				cfg.Net = &asyncnet.Plan{
					Version:       asyncnet.PlanSchema,
					MaxDelaySlots: cfg.PeriodSlots / 4,
					Reorder:       true,
					DupRate:       0.01,
				}
				cfg.JumpsPerCycle = 1
			}
			cases = append(cases, slotCase{fmt.Sprintf("%s/n=%d", mode, n), cfg})
		}
		benchSlots(b, cases...)
	}
}
