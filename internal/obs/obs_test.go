package obs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

func TestRegistryAttribution(t *testing.T) {
	r := NewRegistry()
	a := r.Tenant("a")
	if r.Tenant("a") != a {
		t.Fatal("Tenant not idempotent")
	}
	r.BindCtx(7, a)
	r.ObserveCtx(7, trace.AttrSwapBytes, 100)
	r.ObserveCtx(7, trace.AttrSwapOps, 1)
	r.ObserveCtx(7, trace.AttrCheckpointBytes, 50)
	// Unknown context: silently unattributed, never panics.
	r.ObserveCtx(99, trace.AttrSwapBytes, 1<<30)

	a.SessionJoin()
	a.AddCall(false)
	a.AddCall(true)
	a.AddGPUTime(1000)
	a.AddQueueWait(200)
	a.AddFenceRejection()
	a.AddQuotaReject()
	a.AddMigrationBytes(64)
	a.Launch.Observe(5000)

	u := r.Snapshot()["a"]
	want := api.TenantUsage{
		Sessions: 1, Calls: 2, Errors: 1, Launches: 1, GPUTimeNS: 1000,
		QueueWaitNS: 200, SwapBytes: 100, SwapOps: 1, CheckpointBytes: 50,
		MigrationBytes: 64, FenceRejections: 1, QuotaRejects: 1,
	}
	got := u
	got.Launch, got.QueueWait = trace.HistSnapshot{}, trace.HistSnapshot{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("usage = %+v, want %+v", got, want)
	}
	if u.Launch.Count != 1 || u.QueueWait.Count != 1 {
		t.Errorf("histograms not attributed: launch=%d queue=%d", u.Launch.Count, u.QueueWait.Count)
	}

	r.UnbindCtx(7)
	r.ObserveCtx(7, trace.AttrSwapBytes, 500)
	if got := r.Snapshot()["a"].SwapBytes; got != 100 {
		t.Errorf("attribution after unbind: swap bytes = %d, want 100", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := r.Tenant("t")
			r.BindCtx(int64(g), m)
			for i := 0; i < 1000; i++ {
				r.ObserveCtx(int64(g), trace.AttrSwapBytes, 1)
				m.AddCall(false)
			}
		}(g)
	}
	wg.Wait()
	u := r.Snapshot()["t"]
	if u.SwapBytes != 8000 || u.Calls != 8000 {
		t.Errorf("concurrent attribution lost updates: swap=%d calls=%d, want 8000 each", u.SwapBytes, u.Calls)
	}
}

func nodeStats(calls int64, tenant string, gpu int64) api.RuntimeStats {
	var h trace.Histogram
	h.Observe(gpu)
	return api.RuntimeStats{
		CallsServed: calls,
		GPUTimeNS:   gpu,
		Memory:      api.Memory{SwapBytes: calls * 10},
		Tenants: map[string]api.TenantUsage{
			tenant: {Calls: calls, GPUTimeNS: gpu, Launch: h.Snapshot()},
		},
		Histograms: map[string]trace.HistSnapshot{"launch_latency": h.Snapshot()},
	}
}

func TestMergeStatsConservation(t *testing.T) {
	a := nodeStats(10, "alpha", 1000)
	b := nodeStats(20, "beta", 3000)
	m := MergeStats(a, b)
	if m.CallsServed != 30 || m.GPUTimeNS != 4000 || m.SwapBytes != 300 {
		t.Errorf("counters not summed: %+v", m)
	}
	if m.Devices != nil {
		t.Errorf("merged stats must not carry per-device detail")
	}
	if got := m.Histograms["launch_latency"].Count; got != 2 {
		t.Errorf("histogram merge count = %d, want 2", got)
	}
	var tenantGPU int64
	for _, u := range m.Tenants {
		tenantGPU += u.GPUTimeNS
	}
	if tenantGPU != m.GPUTimeNS {
		t.Errorf("tenant GPU sum %d != merged total %d", tenantGPU, m.GPUTimeNS)
	}
}

func TestMergeTenantUsageSameTenant(t *testing.T) {
	a := nodeStats(10, "alpha", 1000)
	b := nodeStats(5, "alpha", 500)
	m := MergeStats(a, b)
	u := m.Tenants["alpha"]
	if u.Calls != 15 || u.GPUTimeNS != 1500 || u.Launch.Count != 2 {
		t.Errorf("same-tenant merge wrong: %+v", u)
	}
}

// TestMergeSumsEveryField gives every numeric field of two snapshots —
// the embedded Memory and two tenant bundles included — a distinct
// value and checks the merge is the field-wise sum, so a counter added
// to the snapshot can never go missing from the fleet view.
func TestMergeSumsEveryField(t *testing.T) {
	next := int64(0)
	fill := func(v reflect.Value) {
		for _, f := range reflect.VisibleFields(v.Type()) {
			next++
			switch fv := v.FieldByIndex(f.Index); {
			case fv.CanInt():
				fv.SetInt(next)
			case fv.CanUint():
				fv.SetUint(uint64(next))
			}
		}
	}
	var a, b api.RuntimeStats
	var ua, ub api.TenantUsage
	for _, p := range []any{&a, &b, &ua, &ub} {
		fill(reflect.ValueOf(p).Elem())
	}
	var small, large trace.Histogram
	small.Observe(10)      // bucket 4
	large.Observe(1 << 20) // bucket 21
	ua.Launch, ub.Launch = small.Snapshot(), large.Snapshot()
	a.Tenants = map[string]api.TenantUsage{"t": ua}
	b.Tenants = map[string]api.TenantUsage{"t": ub, "only-b": ub}
	a.Histograms = map[string]trace.HistSnapshot{"launch_latency": small.Snapshot()}
	b.Histograms = map[string]trace.HistSnapshot{"launch_latency": large.Snapshot(), "swap_bytes": large.Snapshot()}
	a.Devices = []api.DeviceStats{{Index: 0, Launches: 1}}

	m := MergeStats(a, b)
	sums := func(what string, got, x, y reflect.Value) {
		for _, f := range reflect.VisibleFields(got.Type()) {
			g, p, q := got.FieldByIndex(f.Index), x.FieldByIndex(f.Index), y.FieldByIndex(f.Index)
			switch {
			case g.CanInt() && g.Int() != p.Int()+q.Int():
				t.Errorf("%s.%s = %d, want %d + %d", what, f.Name, g.Int(), p.Int(), q.Int())
			case g.CanUint() && g.Uint() != p.Uint()+q.Uint():
				t.Errorf("%s.%s = %d, want %d + %d", what, f.Name, g.Uint(), p.Uint(), q.Uint())
			}
		}
	}
	sums("RuntimeStats", reflect.ValueOf(m), reflect.ValueOf(a), reflect.ValueOf(b))
	sums("TenantUsage", reflect.ValueOf(m.Tenants["t"]), reflect.ValueOf(ua), reflect.ValueOf(ub))
	if !reflect.DeepEqual(m.Tenants["only-b"], ub) {
		t.Errorf("tenant only one side has = %+v, want %+v", m.Tenants["only-b"], ub)
	}
	if m.Devices != nil {
		t.Errorf("merged stats carry per-device detail: %+v", m.Devices)
	}
	bucketWise := func(what string, h trace.HistSnapshot) {
		if h.Count != 2 || h.Sum != 10+1<<20 || len(h.Buckets) != 22 || h.Buckets[4] != 1 || h.Buckets[21] != 1 {
			t.Errorf("%s not merged bucket-wise: %+v", what, h)
		}
	}
	bucketWise("histogram launch_latency", m.Histograms["launch_latency"])
	bucketWise("tenant launch histogram", m.Tenants["t"].Launch)
	if m.Histograms["swap_bytes"].Count != 1 {
		t.Errorf("histogram only one side has: %+v", m.Histograms["swap_bytes"])
	}
	if !reflect.DeepEqual(a.Tenants["t"], ua) || a.Histograms["launch_latency"].Count != 1 {
		t.Error("merge wrote through to an input snapshot's maps")
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector("head", func() api.RuntimeStats { return nodeStats(1, "alpha", 100) })
	c.AddPeer("n2", func() (api.RuntimeStats, error) { return nodeStats(2, "beta", 200), nil })
	c.AddPeer("n3", func() (api.RuntimeStats, error) { return api.RuntimeStats{}, errors.New("link down") })

	cs := c.Collect()
	if len(cs.Nodes) != 2 {
		t.Fatalf("reachable nodes = %d, want 2 (head + n2)", len(cs.Nodes))
	}
	if cs.Merged.CallsServed != 3 {
		t.Errorf("merged calls = %d, want 3", cs.Merged.CallsServed)
	}
	if msg := cs.Unreachable["n3"]; !strings.Contains(msg, "link down") {
		t.Errorf("unreachable n3 = %q, want link-down error", msg)
	}
	if got := cs.NodeNames(); len(got) != 2 || got[0] != "head" || got[1] != "n2" {
		t.Errorf("NodeNames = %v", got)
	}
}

// sloHarness drives an engine with a fake wall clock and mutable usage.
type sloHarness struct {
	now    time.Time
	usage  map[string]api.TenantUsage
	events []SLOEvent
	eng    *SLOEngine
}

func newSLOHarness(t *testing.T, obj Objective) *sloHarness {
	t.Helper()
	h := &sloHarness{now: time.Unix(1000, 0), usage: map[string]api.TenantUsage{}}
	h.eng = NewSLOEngine(SLOEngineOptions{
		Objectives:  func() []Objective { return []Objective{obj} },
		Usage:       func() map[string]api.TenantUsage { return cloneUsage(h.usage) },
		Publish:     func(ev SLOEvent) { h.events = append(h.events, ev) },
		ShortWindow: 10 * time.Second,
		LongWindow:  30 * time.Second,
		Now:         func() time.Time { return h.now },
	})
	return h
}

func cloneUsage(u map[string]api.TenantUsage) map[string]api.TenantUsage {
	out := make(map[string]api.TenantUsage, len(u))
	for k, v := range u {
		out[k] = v
	}
	return out
}

// observeLaunches folds n launches of latNS into the tenant's usage.
func (h *sloHarness) observeLaunches(tenant string, n int, latNS int64) {
	u := h.usage[tenant]
	var hist trace.Histogram
	for i := 0; i < n; i++ {
		hist.Observe(latNS)
	}
	u.Launch = u.Launch.Merge(hist.Snapshot())
	u.Calls += int64(n)
	h.usage[tenant] = u
}

func TestSLOLatencyBreachAndResolve(t *testing.T) {
	h := newSLOHarness(t, Objective{Tenant: "acme", LaunchP99NS: 1 << 20})

	// Healthy traffic: everything far under the objective.
	for i := 0; i < 5; i++ {
		h.observeLaunches("acme", 100, 1<<10)
		h.eng.Tick()
		h.now = h.now.Add(5 * time.Second)
	}
	if len(h.events) != 0 {
		t.Fatalf("events during healthy traffic: %+v", h.events)
	}

	// Latency regression: every launch blows the objective, long enough
	// to poison both windows.
	for i := 0; i < 10; i++ {
		h.observeLaunches("acme", 100, 1<<25)
		h.eng.Tick()
		h.now = h.now.Add(5 * time.Second)
	}
	if len(h.events) != 1 || !h.events[0].Status.Breaching {
		t.Fatalf("want exactly one breach event, got %+v", h.events)
	}
	ev := h.events[0].Status
	if ev.Kind != "launch_p99" || ev.Tenant != "acme" {
		t.Errorf("event identity wrong: %+v", ev)
	}
	if ev.ShortBurn <= 2 || ev.LongBurn <= 2 {
		t.Errorf("burn rates should exceed threshold: %+v", ev)
	}

	st := h.eng.Status()
	if len(st) != 1 || !st[0].Breaching {
		t.Errorf("Status() = %+v, want one breaching row", st)
	}

	// Recovery: healthy again until both windows drain.
	for i := 0; i < 10; i++ {
		h.observeLaunches("acme", 100, 1<<10)
		h.eng.Tick()
		h.now = h.now.Add(5 * time.Second)
	}
	if len(h.events) != 2 || h.events[1].Status.Breaching {
		t.Fatalf("want a resolve event after recovery, got %+v", h.events)
	}
}

func TestSLOErrorRatio(t *testing.T) {
	h := newSLOHarness(t, Objective{Tenant: "acme", MaxErrorRatio: 0.01})
	for i := 0; i < 10; i++ {
		u := h.usage["acme"]
		u.Calls += 100
		u.Errors += 50 // 50% errors against a 1% objective
		h.usage["acme"] = u
		h.eng.Tick()
		h.now = h.now.Add(5 * time.Second)
	}
	if len(h.events) != 1 || !h.events[0].Status.Breaching {
		t.Fatalf("want breach on error ratio, got %+v", h.events)
	}
	if k := h.events[0].Status.Kind; k != "error_ratio" {
		t.Errorf("kind = %q", k)
	}
}

func TestSLONoTrafficNoBurn(t *testing.T) {
	h := newSLOHarness(t, Objective{Tenant: "ghost", LaunchP99NS: 1000, MaxErrorRatio: 0.5})
	for i := 0; i < 5; i++ {
		h.eng.Tick()
		h.now = h.now.Add(5 * time.Second)
	}
	if len(h.events) != 0 {
		t.Errorf("idle tenant produced events: %+v", h.events)
	}
	for _, st := range h.eng.Status() {
		if st.ShortBurn != 0 || st.LongBurn != 0 || st.Breaching {
			t.Errorf("idle tenant burning: %+v", st)
		}
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder("n1", dir, 4)
	f.SetSources(
		func() time.Duration { return 42 * time.Millisecond },
		func() map[string]trace.HistSnapshot {
			var h trace.Histogram
			h.Observe(100)
			return map[string]trace.HistSnapshot{"launch_latency": h.Snapshot()}
		},
		func() api.RuntimeStats { return api.RuntimeStats{CallsServed: 9} },
	)
	for i := 0; i < 6; i++ { // overfill the 4-slot ring
		f.Note("bind", int64(i), 0, "")
	}
	path, err := f.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	if path != f.Path() {
		t.Errorf("dump path %q != Path() %q", path, f.Path())
	}
	d, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != FlightSchema || d.Node != "n1" || d.Reason != "test" {
		t.Errorf("dump header wrong: %+v", d)
	}
	if len(d.Records) != 4 {
		t.Fatalf("ring retained %d records, want 4", len(d.Records))
	}
	// Oldest-first, and the two oldest records were overwritten.
	if d.Records[0].Seq != 3 || d.Records[3].Seq != 6 {
		t.Errorf("ring order wrong: first seq %d last %d", d.Records[0].Seq, d.Records[3].Seq)
	}
	if d.Seq != 6 {
		t.Errorf("dump seq = %d, want 6", d.Seq)
	}
	if d.Stats == nil || d.Stats.CallsServed != 9 {
		t.Errorf("stats snapshot missing: %+v", d.Stats)
	}
	if d.Hists["launch_latency"].Count != 1 {
		t.Errorf("hist delta missing: %+v", d.Hists)
	}
	if d.Records[0].Model != 42*time.Millisecond {
		t.Errorf("model clock not captured: %v", d.Records[0].Model)
	}

	// Second dump: histogram delta vs the first, so the same snapshot
	// yields an empty delta.
	if _, err := f.Dump("again"); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadFlightDump(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Hists["launch_latency"].Count != 0 {
		t.Errorf("second dump delta = %+v, want empty", d2.Hists["launch_latency"])
	}
	if f.Dumps() != 2 {
		t.Errorf("Dumps() = %d, want 2", f.Dumps())
	}
}

func TestFlightRecorderStormDump(t *testing.T) {
	f := NewFlightRecorder("n1", t.TempDir(), 64)
	for i := 0; i < 10; i++ {
		f.Note("fence", 1, 0, "deposed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for f.Dumps() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.Dumps() == 0 {
		t.Fatal("fence storm did not trigger a dump")
	}
	d, err := ReadFlightDump(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "fence-storm" {
		t.Errorf("reason = %q, want fence-storm", d.Reason)
	}
}

func TestFlightRecorderWrapCrash(t *testing.T) {
	f := NewFlightRecorder("n1", t.TempDir(), 8)
	f.Note("ctrl-op", 0, 0, "tenant-create")
	died := false
	f.WrapCrash(func() { died = true })()
	if !died {
		t.Fatal("WrapCrash did not chain to next")
	}
	d, err := ReadFlightDump(f.Path())
	if err != nil {
		t.Fatalf("crash-point dump unreadable: %v", err)
	}
	if d.Reason != "crash-point" || len(d.Records) != 1 {
		t.Errorf("dump = reason %q records %d", d.Reason, len(d.Records))
	}
	// Nil recorder: WrapCrash still runs next and Note is a no-op.
	var nilF *FlightRecorder
	nilF.Note("x", 0, 0, "")
	ran := false
	nilF.WrapCrash(func() { ran = true })()
	if !ran {
		t.Error("nil recorder WrapCrash dropped next")
	}
}

func TestReadFlightDumpRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"nope/v9"}`), 0o644)
	if _, err := ReadFlightDump(bad); err == nil {
		t.Error("wrong schema accepted")
	}
	torn := filepath.Join(dir, "torn.json")
	os.WriteFile(torn, []byte(`{"schema":"gvrt-fl`), 0o644)
	if _, err := ReadFlightDump(torn); err == nil {
		t.Error("torn JSON accepted")
	}
	if _, err := ReadFlightDump(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
