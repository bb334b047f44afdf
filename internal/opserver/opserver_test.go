package opserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

const testBinID = "opserver-test-bin"

func testBinary() api.FatBinary {
	return api.FatBinary{
		ID:      testBinID,
		Kernels: []api.KernelMeta{{Name: "work", BaseTime: time.Millisecond}},
	}
}

// newNode builds an in-process runtime with tracing on, runs a small
// workload through it so every exposition surface has data, and
// returns the operator-plane handler over it.
func newNode(t *testing.T) (http.Handler, *core.Runtime) {
	t.Helper()
	clock := sim.NewClock(1e-7)
	dev := gpu.NewDevice(0, gpu.TeslaC2050, clock)
	crt := cudart.New(clock, dev)
	rec := trace.NewRecorder(1024)
	rt, err := core.New(crt, core.Config{Trace: rec, CallOverhead: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		rt.Close()
		wg.Wait()
	})

	cc, sc := transport.Pipe()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.Serve(sc)
	}()
	c := frontend.Connect(cc)
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTenant("acme"); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Launch(api.LaunchCall{Kernel: "work", PtrArgs: []api.DevPtr{p}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	h := Handler(Source{
		Stats: rt.Metrics,
		Trace: rt.TraceRecorder(),
		Now:   rt.Clock().Now,
		Name:  "gvrtd test-node",
	})
	return h, rt
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", path, w.Code)
	}
	return w
}

// expositionLine is the shape every non-comment /metrics line must
// have: a metric name, optional label set, and a number.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*",?)*\})? -?[0-9.eE+-]+(Inf)?$`)

func TestMetricsExposition(t *testing.T) {
	h, _ := newNode(t)
	body := get(t, h, "/metrics").Body.String()

	launchCount := int64(-1)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("malformed comment line: %q", line)
			}
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		if strings.HasPrefix(line, "gvrt_launch_latency_seconds_count") {
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			launchCount = v
		}
	}
	switch {
	case launchCount < 0:
		t.Error("gvrt_launch_latency_seconds_count missing from exposition")
	case launchCount != 5:
		t.Errorf("launch latency count = %d, want 5", launchCount)
	}
	for _, want := range []string{
		"gvrt_calls_served_total",
		"gvrt_queue_depth",
		"gvrt_device_healthy{device=\"0\"",
		"gvrt_call_duration_seconds_bucket{kind=\"cudaLaunch\"",
		"gvrt_launch_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsBucketsCumulative checks the histogram contract scrapers
// rely on: bucket counts are non-decreasing in le order and the +Inf
// bucket equals _count.
func TestMetricsBucketsCumulative(t *testing.T) {
	h, _ := newNode(t)
	body := get(t, h, "/metrics").Body.String()

	var prev, inf, count int64 = -1, -1, -1
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "gvrt_launch_latency_seconds_bucket"):
			v, _ := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if v < prev {
				t.Errorf("bucket counts not cumulative: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "gvrt_launch_latency_seconds_count"):
			count, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if inf < 0 || inf != count {
		t.Errorf("+Inf bucket = %d, _count = %d; want equal and present", inf, count)
	}
}

func TestStatusz(t *testing.T) {
	h, rt := newNode(t)
	rt.Timings().DedupSaved.Observe(64 << 10)
	rt.Timings().MigrationBytes.Observe(64 << 10)
	body := get(t, h, "/statusz").Body.String()
	for _, want := range []string{"devices:", "Tesla C2050", "healthy", "counters:", "launch_latency", "spans recorded:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q\n%s", want, body)
		}
	}
	// Byte families print bytes: 64 KiB lands in the log2 bucket whose
	// upper bound is 128 KiB, and the mean is exact.
	for _, k := range []string{"dedup_saved", "migration_bytes"} {
		re := regexp.MustCompile(`(?m)^  ` + k + ` +1 +131072B +131072B +65536B$`)
		if !re.MatchString(body) {
			t.Errorf("/statusz does not print %s in bytes:\n%s", k, body)
		}
	}
}

func TestTracez(t *testing.T) {
	h, _ := newNode(t)
	body := get(t, h, "/tracez").Body.String()
	if !strings.Contains(body, "call.cudaLaunch") {
		t.Errorf("/tracez missing launch spans:\n%s", body)
	}
	limited := get(t, h, "/tracez?n=1").Body.String()
	if !strings.Contains(limited, "slowest 1 of") {
		t.Errorf("/tracez?n=1 did not limit:\n%s", limited)
	}
}

func TestTraceJSON(t *testing.T) {
	h, _ := newNode(t)
	body := get(t, h, "/trace.json").Body.Bytes()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/trace.json is not valid JSON: %v", err)
	}
	var complete, meta bool
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			complete = true
		case "M":
			meta = true
		}
	}
	if !complete || !meta {
		t.Errorf("trace export lacks spans (X=%v) or process metadata (M=%v)", complete, meta)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	h, _ := newNode(t)
	if body := get(t, h, "/").Body.String(); !strings.Contains(body, "/metrics") {
		t.Errorf("index page missing endpoint list:\n%s", body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", w.Code)
	}
}

// TestTracingOff covers the degraded plane: no recorder, no clock.
func TestTracingOff(t *testing.T) {
	clock := sim.NewClock(1e-7)
	crt := cudart.New(clock, gpu.NewDevice(0, gpu.TeslaC1060, clock))
	rt, err := core.New(crt, core.Config{CallOverhead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h := Handler(Source{Stats: rt.Metrics})
	if body := get(t, h, "/tracez").Body.String(); !strings.Contains(body, "tracing off") {
		t.Errorf("/tracez without recorder: %q", body)
	}
	get(t, h, "/metrics")
	get(t, h, "/statusz")
	get(t, h, "/trace.json")
}
