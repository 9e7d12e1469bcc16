package metrics_test

import (
	"fmt"
	"os"

	"repro/internal/metrics"
)

// ExampleSummarize condenses a sample into the statistics the experiment
// tables report.
func ExampleSummarize() {
	s := metrics.Summarize([]float64{830, 1230, 2030, 3630})
	fmt.Printf("mean %.0f, median %.0f\n", s.Mean, s.Median)
	// Output: mean 1930, median 1630
}

// ExampleTable renders an aligned experiment table.
func ExampleTable() {
	t := metrics.NewTable("Demo", "nodes", "slots")
	t.AddRow(50, 831)
	t.AddRow(1000, 8431)
	t.Render(os.Stdout)
	// Output:
	// Demo
	// nodes  slots
	// -----  -----
	// 50     831
	// 1000   8431
}

// ExampleMannWhitneyU tests whether two result samples differ.
func ExampleMannWhitneyU() {
	fst := []float64{830, 825, 840, 835, 828}
	st := []float64{1040, 1050, 1045, 1048, 1043}
	_, p := metrics.MannWhitneyU(fst, st)
	fmt.Println("significant:", p < 0.05)
	// Output: significant: true
}
