// Benchmarks regenerating every table, figure and scenario of the Leopard
// paper's evaluation (§VI): one sub-benchmark per experiments.Catalog entry,
// each printing the rows leopard-sim prints for it. The rows themselves are
// pinned at each experiment's smoke point by
// internal/experiments/testdata/experiments.golden, not here.
//
// The default sweeps are the catalog's trimmed ones, so the whole suite
// finishes in minutes on one core; run with -args -leopard.full for the
// paper's full sweeps (up to n = 600).
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"leopard/internal/experiments"
)

var fullSweep = flag.Bool("leopard.full", false, "run the paper's full parameter sweeps (slow)")

// BenchmarkExperiments runs every catalog entry; select one with
// -bench Experiments/<id>.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Catalog {
		b.Run(e.ID, func(b *testing.B) {
			s := e.Trimmed()
			if *fullSweep {
				s = e.Paper
			}
			for i := 0; i < b.N; i++ {
				rows, err := e.Run(s)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if i == 0 {
					fmt.Printf("\n%s: %s\n", e.ID, e.Desc)
					rows.Print(os.Stdout)
				}
			}
		})
	}
}
