package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// keptSessions is how many sessions per traced round keep every span
// for the Chrome trace file; the rest only feed the per-kind totals.
const keptSessions = 8

// tracedExport says which per-layer metrics a workload's traced rounds
// contribute. A metric comes from the workload that exercises its
// layer: swap figures from swap-pressure, the proxy hop from
// tcp-offload, the journal from durable-commit. rename maps a round's
// generic layer name to the name it is reported under.
type tracedExport struct {
	names  []string
	rename map[string]string
}

var tracedExports = map[string]tracedExport{
	"pipe-dispatch": {names: []string{
		"frontend.call_us", "transport.request_us", "transport.reply_us", "core.handle_us",
		"core.handle_launch_us", "core.handle_memcpy_hd_us", "core.dispatch_self_us", "core.bind_wait_us",
	}},
	"swap-pressure": {
		names: []string{
			"memmgr.intra_swap_us_per_launch", "memmgr.inter_swap_us_per_launch", "memmgr.swap_ops",
			"core.queue_wait_us", "core.prefetch_hits", "core.handle_launch_us",
		},
		rename: map[string]string{"core.handle_launch_us": "core.handle_swap_launch_us"},
	},
	"tcp-offload": {names: []string{"core.proxy_self_us", "transport.tcp_call_self_us", "core.peer_handle_us"}},
	"durable-commit": {
		names: []string{
			"ckptlog.commit_wall_us", "ckptlog.syncs_per_commit", "ckptlog.bytes_per_commit",
			"memmgr.dedup_saved_bytes", "core.handle_launch_us",
		},
		rename: map[string]string{"core.handle_launch_us": "core.handle_durable_launch_us"},
	},
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	}
	return "count"
}

// runTraced is the run behind the per-layer metrics: the ladder, then
// traced rounds of every workload (each contributes the metrics of the
// layers it exercises), with the selected workload also run untraced,
// interleaved, to price the tracing itself. Nothing here feeds an
// end-to-end metric.
func runTraced(selected string, sz sizes, seed int64, seconds float64, workdir string) (*runResult, error) {
	if _, ok := tracedExports[selected]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", selected, workloadNames)
	}
	res := &runResult{Workload: selected + " (traced)"}
	ladder, err := runLadder(0.4*seconds, workdir)
	if err != nil {
		return nil, err
	}
	res.Metrics = ladder

	// The selected workload gets half of what is left (split between
	// its traced and untraced rounds), the other three share the rest.
	rest := 0.6 * seconds
	for _, name := range workloadNames {
		share := rest / 2 / float64(len(workloadNames)-1)
		if name == selected {
			share = rest / 2
		}
		w, err := newWorkload(name, sz, clientCount(), seed, workdir)
		if err != nil {
			return nil, err
		}
		if _, err := runRound(w, nil); err != nil { // warm-up
			return nil, err
		}
		tr := newTracer(name == "tcp-offload", keptSessions)
		var traced, plain []*roundRec
		start := time.Now()
		for len(traced) < 2 || time.Since(start).Seconds() < share {
			r, err := runRound(w, tr)
			if err != nil {
				return nil, err
			}
			traced = append(traced, r)
			if name == selected {
				if r, err = runRound(w, nil); err != nil {
					return nil, err
				}
				plain = append(plain, r)
			}
		}
		for _, r := range append(append([]*roundRec(nil), traced...), plain...) {
			res.Attempted += r.attempted
			res.Failed += r.failed
			res.Rounds++
		}
		res.Metrics = append(res.Metrics, exportLayers(name, traced)...)
		// What an untraced run cannot hold to a bound, per workload: the
		// volatile pair everywhere, and all of durable-commit's numbers
		// (README: its wall clock follows the disk's fsync latency).
		own := volatileMetrics(traced)
		if name == "durable-commit" {
			own = append(own, endToEndMetrics(traced)...)
		}
		for _, m := range own {
			if name == "durable-commit" && m.Name == "call_p99_us" {
				continue // ~150 timed calls per round carry no p99
			}
			m.Name = name + "." + m.Name
			res.Metrics = append(res.Metrics, m)
		}
		if name == selected {
			res.Metrics = append(res.Metrics, overheadMetrics(traced, plain)...)
			path := filepath.Join(workdir, "trace-"+name+".json")
			if err := tr.writeChrome(path); err != nil {
				return nil, fmt.Errorf("writing %s: %w", path, err)
			}
			fmt.Printf("chrome trace of %d kept sessions per round: %s\n", keptSessions, path)
		}
	}
	sort.SliceStable(res.Metrics, func(i, k int) bool { return res.Metrics[i].Name < res.Metrics[k].Name })
	return res, nil
}

// exportLayers reduces a workload's traced rounds to the per-layer
// metrics it contributes: the median over rounds of each value.
func exportLayers(workload string, rounds []*roundRec) []metric {
	ex := tracedExports[workload]
	out := make([]metric, 0, len(ex.names))
	for _, name := range ex.names {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r.layer[name]
		}
		as := name
		if n, ok := ex.rename[name]; ok {
			as = n
		}
		out = append(out, newMetric(as, unitOf(as), vals))
	}
	return out
}

// overheadMetrics prices the tracing (traced against untraced
// calls_per_s, medians over the interleaved rounds) and reports the
// collector's activity in the untraced rounds, which is what the
// end-to-end tail and heap metrics feel.
func overheadMetrics(traced, plain []*roundRec) []metric {
	rate := func(rounds []*roundRec) float64 {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = float64(r.served) / r.wall.Seconds()
		}
		return summarize(vals).Median
	}
	t, p := rate(traced), rate(plain)
	pct := (p - t) / p * 100
	cycles := make([]float64, len(plain))
	pause := make([]float64, len(plain))
	for i, r := range plain {
		cycles[i] = float64(r.gcCycles)
		pause[i] = float64(r.gcPause.Nanoseconds()) / 1e3
	}
	return []metric{
		{Name: "trace_overhead_pct", Unit: "%", Value: pct, Diag: summary{N: len(plain), Median: pct}},
		newMetric("go.gc_cycles_per_round", "count", cycles),
		newMetric("go.gc_pause_us_per_round", "us", pause),
	}
}
