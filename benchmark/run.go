package main

import (
	"fmt"
	"runtime"
	"time"

	"gvrt/internal/sim"
)

// Round counts. A run discards warmupRounds whole rounds (their
// durations are the setup_s samples), then measures rounds until the
// --seconds budget is spent, and never fewer than minRounds.
const (
	warmupRounds = 5
	minRounds    = 5
)

// metric is one reported value with the diagnostics printed beside it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Diag  summary // over rounds (or blocks of rounds); Diag.Median == Value
}

// runResult is everything one benchmark run reports. Metrics go into
// the result object; Diagnostics are printed in the table only.
type runResult struct {
	Workload    string
	Metrics     []metric
	Diagnostics []metric
	Attempted   int64
	Failed      int64
	Rounds      int
}

func (res *runResult) get(name string) (metric, bool) {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// clientCount is C: one closed-loop load-generating goroutine, with one
// live connection, per processor the Go scheduler may use.
func clientCount() int {
	c := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < c {
		c = p
	}
	if c < 1 {
		c = 1
	}
	return c
}

var workloadNames = []string{"pipe-dispatch", "swap-pressure", "tcp-offload", "durable-commit"}

// newWorkload builds the named workload's inputs from the seed.
func newWorkload(name string, sz sizes, clients int, seed int64, workdir string) (workload, error) {
	rng := sim.NewRNG(seed).Fork(name)
	switch name {
	case "pipe-dispatch":
		return newPipeDispatch(sz, clients, rng), nil
	case "swap-pressure":
		return newSwapPressure(sz, clients, rng), nil
	case "tcp-offload":
		return newTCPOffload(sz, clients, rng), nil
	case "durable-commit":
		return newDurableCommit(sz, clients, rng, workdir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runRound runs one round of w and validates it: an invariant error or
// a failed call makes the round — and the run — invalid.
func runRound(w workload, tr *tracer) (*roundRec, error) {
	r := &roundRec{layer: map[string]float64{}}
	if err := w.round(r, tr); err != nil {
		return nil, err
	}
	if err := r.callFailures(w.name()); err != nil {
		return nil, err
	}
	if r.served == 0 || r.wall <= 0 {
		return nil, invariant(w.name(), "round served %d calls in %v", r.served, r.wall)
	}
	r.reduce()
	tr.flush(r)
	return r, nil
}

// measureRounds runs rounds of w until budget is spent (at least min).
func measureRounds(w workload, tr *tracer, budget time.Duration, min int) ([]*roundRec, error) {
	var rounds []*roundRec
	start := time.Now()
	for len(rounds) < min || time.Since(start) < budget {
		r, err := runRound(w, tr)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// runEndToEnd is the untraced run behind the end-to-end metrics.
func runEndToEnd(name string, sz sizes, seed int64, seconds float64, workdir string) (*runResult, error) {
	w, err := newWorkload(name, sz, clientCount(), seed, workdir)
	if err != nil {
		return nil, err
	}
	// Set-up: a fresh node taken through one whole round, several
	// times. The first is the coldest (heap growth, page faults, lazy
	// runtime state); the median says what bringing a node up to
	// measured speed costs, and work moved into node build shows here.
	setup := make([]float64, 0, warmupRounds)
	for i := 0; i < warmupRounds; i++ {
		t0 := time.Now()
		if _, err := runRound(w, nil); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i+1, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	rounds, err := measureRounds(w, nil, time.Duration(seconds*float64(time.Second)), minRounds)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: name, Rounds: len(rounds)}
	res.Metrics = append(res.Metrics, newMetric("setup_s", "s", setup))
	res.Metrics = append(res.Metrics, endToEndMetrics(rounds)...)
	res.Diagnostics = volatileMetrics(rounds)
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	return res, nil
}

func newMetric(name, unit string, perRound []float64) metric {
	s := summarize(perRound)
	return metric{Name: name, Unit: unit, Value: s.Median, Diag: s}
}

// perRound maps rounds to one value each.
func perRound(rounds []*roundRec, f func(r *roundRec) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// endToEndMetrics reduces measured rounds to the user-visible metrics.
// Every value — a rate, a per-call cost, a latency percentile — is
// computed per round and reported as the median over rounds, so a
// disturbed round moves nothing. The full sizes give every round at
// least 25k timed calls.
func endToEndMetrics(rounds []*roundRec) []metric {
	return []metric{
		newMetric("calls_per_s", "1/s", perRound(rounds, func(r *roundRec) float64 { return float64(r.served) / r.wall.Seconds() })),
		newMetric("call_p50_us", "us", perRound(rounds, func(r *roundRec) float64 { return r.p50 / 1e3 })),
		newMetric("session_p50_us", "us", perRound(rounds, func(r *roundRec) float64 { return r.sesP50 / 1e3 })),
		newMetric("allocs_per_call", "count", perRound(rounds, func(r *roundRec) float64 { return float64(r.mallocs) / float64(r.served) })),
		newMetric("alloc_bytes_per_call", "B", perRound(rounds, func(r *roundRec) float64 { return float64(r.bytes) / float64(r.served) })),
		newMetric("heap_live_mb", "MB", perRound(rounds, func(r *roundRec) float64 { return float64(r.heapLive) / (1 << 20) })),
	}
}

// volatileMetrics are the two measurements that follow the box's
// minute-scale speed states too closely to be held to a bound (README,
// "How steady it is"): the latency tail and process CPU per call. An
// untraced run prints them as diagnostics; the traced run reports them
// per workload in the per-layer list.
func volatileMetrics(rounds []*roundRec) []metric {
	return []metric{
		newMetric("call_p99_us", "us", perRound(rounds, func(r *roundRec) float64 { return r.p99 / 1e3 })),
		newMetric("cpu_us_per_call", "us", perRound(rounds, func(r *roundRec) float64 {
			return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.served)
		})),
	}
}
