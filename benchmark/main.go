// Command benchmark is the repository's benchmark: four closed-loop
// workloads that time the runtime from outside, through its public
// functions, plus a per-layer ladder and a traced run that say which
// layer a number came from. README.md in this directory explains every
// choice; BENCHMARK.json at the repository root is the contract.
//
//	benchmark -workload pipe-dispatch -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	benchmark -workload pipe-dispatch -seed 1 -seconds 20 -trace 1   per-layer metrics
//	benchmark -ladder                                                the ladder alone
//	benchmark -selfcheck                                             A/A repeatability gate
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed         = flag.Int64("seed", 1, "seed for tenant assignment, payload bytes and session order")
		seconds      = flag.Float64("seconds", 30, "how long to measure")
		traceMode    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: ladder + traced run, per-layer metrics")
		ladderOnly   = flag.Bool("ladder", false, "run only the per-layer ladder")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice and compare the two result sets against the bounds")
		workdir      = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for journal dirs and trace files")
	)
	flag.Parse()
	// Explicit, so a GOGC in the environment cannot change what
	// allocs_per_call and the latency tail mean.
	debug.SetGCPercent(100)

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	env := fingerprint(*workdir)
	switch {
	case *selfcheck:
		if err := runSelfcheck(os.Stdout, fullSizes, *seed, *seconds, *workdir); err != nil {
			fatal(err)
		}
	case *ladderOnly:
		metrics, err := runLadder(*seconds, *workdir)
		if err != nil {
			fatal(err)
		}
		res := &runResult{Workload: "ladder", Metrics: metrics, Attempted: 1}
		report(os.Stdout, res, env)
	case *traceMode == 1:
		res, err := runTraced(*workloadName, fullSizes, *seed, *seconds, *workdir)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, res, env)
	case *traceMode == 0:
		res, err := runEndToEnd(*workloadName, fullSizes, *seed, *seconds, *workdir)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, res, env)
	default:
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// report prints the human-readable table and, last, the result object.
func report(w io.Writer, res *runResult, env map[string]string) {
	fmt.Fprintf(w, "workload %s: %d rounds, %d calls attempted, %d failed\n",
		res.Workload, res.Rounds, res.Attempted, res.Failed)
	fmt.Fprintf(w, "%-36s %16s %-6s %5s %14s %14s\n", "metric", "median", "unit", "n", "iqr", "min")
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-36s %16.4f %-6s %5d %14.4f %14.4f\n", m.Name, m.Value, m.Unit, m.Diag.N, m.Diag.IQR, m.Diag.Min)
	}
	for _, m := range res.Diagnostics {
		fmt.Fprintf(w, "%-36s %16.4f %-6s %5d %14.4f %14.4f  (diagnostic, not in the result)\n",
			m.Name, m.Value, m.Unit, m.Diag.N, m.Diag.IQR, m.Diag.Min)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "environment %s\n", envJSON)
	fmt.Fprintln(w, resultLine(res))
}

// resultLine renders the one-line JSON object the driver reads.
func resultLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]value, len(res.Metrics)),
	}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}
