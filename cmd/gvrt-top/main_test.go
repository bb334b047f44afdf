package main

import (
	"strings"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// frame builds a plausible snapshot for layout tests.
func frame(calls, busyNS, launchN int64, hist map[string]trace.HistSnapshot) api.RuntimeStats {
	return api.RuntimeStats{
		CallsServed:  calls,
		QueueDepth:   2,
		LiveContexts: 3,
		Memory:       api.Memory{SwapBytes: calls * 1000},
		Devices: []api.DeviceStats{{
			Index: 0, Name: "Tesla C2050", Healthy: true,
			BusyNS: busyNS, Launches: launchN,
			ActiveVGPUs: 2, VGPUs: 4,
			MemAvailable: 1 << 30, Capacity: 3 << 30,
		}},
		Histograms: hist,
	}
}

func hist(values ...int64) trace.HistSnapshot {
	var out trace.HistSnapshot
	for _, v := range values {
		bucket := 0
		for b := 0; b < 63; b++ {
			if v < trace.BucketBound(b) {
				bucket = b
				break
			}
		}
		for len(out.Buckets) <= bucket {
			out.Buckets = append(out.Buckets, 0)
		}
		out.Buckets[bucket]++
		out.Count++
		out.Sum += v
	}
	return out
}

func TestRenderFirstFrame(t *testing.T) {
	st := frame(100, int64(time.Second), 40, map[string]trace.HistSnapshot{
		"launch_latency":  hist(1000, 2000, 1e6),
		"dedup_saved":     hist(64 << 10),
		"migration_bytes": hist(64 << 10),
	})
	out := render("host:7070", st, api.RuntimeStats{}, false, 2*time.Second)
	for _, want := range []string{"Tesla C2050", "healthy", "2/4", "launch_latency", "dedup_saved", "migration_bytes", "queue 2", "contexts 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("first frame missing %q:\n%s", want, out)
		}
	}
	// Byte families print bytes: 64 KiB lands in the log2 bucket whose
	// upper bound is 128 KiB.
	for _, line := range strings.Split(out, "\n") {
		if (strings.HasPrefix(line, "dedup_saved ") || strings.HasPrefix(line, "migration_bytes ")) &&
			!strings.Contains(line, " 131072B ") {
			t.Errorf("byte histogram not rendered in bytes: %q", line)
		}
	}
	if strings.Contains(out, "rates:") || strings.Contains(out, "Δcount") {
		t.Errorf("first frame must not show interval columns (no previous snapshot):\n%s", out)
	}
}

func TestRenderInterval(t *testing.T) {
	prev := frame(100, int64(time.Second), 40, map[string]trace.HistSnapshot{
		"launch_latency": hist(1000),
	})
	st := frame(150, int64(3*time.Second), 90, map[string]trace.HistSnapshot{
		"launch_latency": hist(1000, 1e6, 1e6),
	})
	out := render("host:7070", st, prev, true, 2*time.Second)
	if !strings.Contains(out, "rates: 25.0 calls/s") {
		t.Errorf("interval frame missing call rate (50 calls / 2s):\n%s", out)
	}
	if !strings.Contains(out, "25.0 launches/s") {
		t.Errorf("interval frame missing launch rate:\n%s", out)
	}
	if !strings.Contains(out, "Δcount") {
		t.Errorf("interval frame missing delta columns:\n%s", out)
	}
	// The interval delta holds only the two 1ms observations, so its
	// p50 must sit in the ~1ms log2 bucket even though the cumulative
	// p50 is still ~1µs.
	dp50 := time.Duration(st.Histograms["launch_latency"].Delta(prev.Histograms["launch_latency"]).Quantile(0.5))
	if dp50 < 500*time.Microsecond {
		t.Errorf("delta p50 = %v, want ≥ 500µs (interval observations only)", dp50)
	}
}

func TestRenderFailedDevice(t *testing.T) {
	st := frame(1, 0, 0, nil)
	st.Devices[0].Healthy = false
	out := render("x", st, api.RuntimeStats{}, false, time.Second)
	if !strings.Contains(out, "FAILED") {
		t.Errorf("failed device not flagged:\n%s", out)
	}
}

func TestBar(t *testing.T) {
	if got := bar(0, 4); got != "[    ]" {
		t.Errorf("bar(0) = %q", got)
	}
	if got := bar(100, 4); got != "[||||]" {
		t.Errorf("bar(100) = %q", got)
	}
	if got := bar(250, 4); got != "[||||]" {
		t.Errorf("bar(250) clamps = %q", got)
	}
	if got := bar(-5, 4); got != "[    ]" {
		t.Errorf("bar(-5) clamps = %q", got)
	}
}
