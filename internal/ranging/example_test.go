package ranging_test

import (
	"fmt"

	"repro/internal/radio"
	"repro/internal/ranging"
)

// ExampleEstimator_EstimateDistance inverts the Table I path-loss model: a
// PS transmitted at 23 dBm and received at -97 dBm has seen 120 dB of path
// loss, which the far branch (40 + 40·log10 d) places at 100 m.
func ExampleEstimator_EstimateDistance() {
	est := ranging.NewEstimator(radio.PaperDualSlope(), 23)
	d := est.EstimateDistance(-97, 1000)
	fmt.Printf("%.1f m\n", float64(d))
	// Output: 100.0 m
}

// ExampleErrorFromShadowing evaluates eq. (12): a +10 dB shadowing draw
// under path-loss exponent 4 inflates the distance estimate by 78%.
func ExampleErrorFromShadowing() {
	eps := ranging.ErrorFromShadowing(10, 4)
	fmt.Printf("%.0f%%\n", 100*eps)
	// Output: 78%
}
