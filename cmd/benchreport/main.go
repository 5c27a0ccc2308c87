// Command benchreport regenerates every table and figure of the paper's
// evaluation (Fig. 1/2, Tables II–VI, Box 1, the two case studies, and the
// design-choice ablations) and prints them, paper numbers alongside the
// measured ones. See EXPERIMENTS.md for the reading guide.
//
// The deterministic counters of the measured tables are pinned by
// internal/bench's counters golden; the performance benchmark is psbench
// (cmd/psbench).
package main

import (
	"fmt"
	"os"

	"privacyscope/internal/bench"
)

func main() {
	out, err := bench.RunAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}
