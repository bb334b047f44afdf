package main

import (
	"fmt"
	"io"
	"math"
)

// endToEnd is the benchmark's contract for one end-to-end metric, the
// same on every workload. BENCHMARK.json at the repository root states
// the same table for the driver; a test keeps the two equal.
type endToEnd struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline's median the metric may worsen by
}

// The bounds come from what the 2-core reference box can repeat (see
// README.md, "How steady it is"): allocation counts repeat to a few
// parts in ten thousand and get tight bounds; anything measured in time
// inherits the box's speed states, which last minutes and move
// throughput by up to ~20%, so no run length averages them away.
var endToEndContract = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"call_p50_us", "us", "lower", 0.25},
	{"session_p50_us", "us", "lower", 0.25},
	{"allocs_per_call", "count", "lower", 0.02},
	{"alloc_bytes_per_call", "B", "lower", 0.02},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// boundedWorkloads are the workloads BENCHMARK.json lists: the ones
// whose end-to-end metrics are held to the bounds. durable-commit runs
// (and is validated) everywhere else, but its wall-clock numbers follow
// the disk's fsync latency, which this box cannot repeat to within any
// admissible bound, so it reports through the per-layer list only.
var boundedWorkloads = []string{"pipe-dispatch", "swap-pressure", "tcp-offload"}

// runSelfcheck is the A/A repeatability gate: every bounded workload is
// run twice back to back and the two result sets must agree, metric by
// metric, within the bound — in either direction, since neither run is
// the baseline.
func runSelfcheck(w io.Writer, sz sizes, seed int64, seconds float64, workdir string) error {
	misses := 0
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %8s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, name := range boundedWorkloads {
		a, err := runEndToEnd(name, sz, seed, seconds, workdir)
		if err != nil {
			return err
		}
		b, err := runEndToEnd(name, sz, seed, seconds, workdir)
		if err != nil {
			return err
		}
		for _, c := range endToEndContract {
			ma, _ := a.get(c.Name)
			mb, _ := b.get(c.Name)
			diff := math.Abs(mb.Value-ma.Value) / ma.Value
			verdict := ""
			if !(diff <= c.Bound) { // also catches NaN
				verdict = "  MISS"
				misses++
			}
			fmt.Fprintf(w, "%-15s %-22s %14.4f %14.4f %7.2f%% %6.0f%%%s\n",
				name, c.Name, ma.Value, mb.Value, diff*100, c.Bound*100, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ between two runs of the same code by more than their bound", misses)
	}
	fmt.Fprintln(w, "selfcheck: every metric repeats within its bound")
	return nil
}
