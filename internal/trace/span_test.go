package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindStringNegative(t *testing.T) {
	// Regression: the bounds check used to pass for negative kinds and
	// panic on the array index.
	if got := Kind(-1).String(); got != "kind(-1)" {
		t.Errorf("Kind(-1).String() = %q, want %q", got, "kind(-1)")
	}
	if got := Kind(-99).String(); got != "kind(-99)" {
		t.Errorf("Kind(-99).String() = %q", got)
	}
	if got := KindBind.String(); got != "bind" {
		t.Errorf("KindBind.String() = %q", got)
	}
}

// TestEveryKindNamed: every kind up to the last has its own name, so
// the flight recorder, which stores names, can tell them apart.
func TestEveryKindNamed(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindConnect; k <= KindNote; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
}

func TestSpanIDsUnique(t *testing.T) {
	seen := make(map[SpanID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]SpanID, 0, 100)
			for i := 0; i < 100; i++ {
				local = append(local, NewSpanID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if id == 0 || seen[id] {
					t.Errorf("duplicate or zero span ID %d", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestSpanRing(t *testing.T) {
	r := NewRecorder(16)
	if len(r.Spans()) != 0 || r.SpanTotal() != 0 {
		t.Fatal("fresh recorder has spans")
	}
	for i := 0; i < 300; i++ {
		r.RecordSpan(Span{
			ID: NewSpanID(), Ctx: int64(i), Phase: "launch",
			Start: time.Duration(i), End: time.Duration(i) + time.Duration(i%7)*time.Millisecond,
		})
	}
	if r.SpanTotal() != 300 {
		t.Errorf("SpanTotal = %d, want 300", r.SpanTotal())
	}
	spans := r.Spans()
	if len(spans) != 256 { // span ring floor is 256
		t.Fatalf("retained %d spans, want 256", len(spans))
	}
	if spans[0].Ctx != 44 || spans[255].Ctx != 299 {
		t.Errorf("retained window = [%d..%d], want [44..299]", spans[0].Ctx, spans[255].Ctx)
	}
	slow := r.SlowestSpans(10)
	if len(slow) != 10 {
		t.Fatalf("SlowestSpans(10) = %d spans", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Dur() > slow[i-1].Dur() {
			t.Errorf("SlowestSpans not sorted: %v > %v at %d", slow[i].Dur(), slow[i-1].Dur(), i)
		}
	}
}

func TestSpanString(t *testing.T) {
	s := Span{ID: 3, Parent: 2, Ctx: 7, Phase: "swap-in", Start: time.Second,
		End: time.Second + 40*time.Millisecond, Device: 1, Detail: "3 entries", Err: "boom"}
	str := s.String()
	for _, want := range []string{"swap-in", "ctx=7", "parent=2", "dev=1", "3 entries", `err="boom"`} {
		if !strings.Contains(str, want) {
			t.Errorf("Span.String() = %q, missing %q", str, want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not empty")
	}
	// 100 observations of 1000ns, 10 of 1_000_000ns.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000000)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Sum != 100*1000+10*1000000 {
		t.Errorf("Sum = %d", s.Sum)
	}
	// p50 must land in the 1000ns bucket: bound 1024.
	if q := s.Quantile(0.5); q != 1024 {
		t.Errorf("p50 = %d, want 1024", q)
	}
	// p99 must land in the 1000000ns bucket: bucket 20, bound 2^20.
	if q := s.Quantile(0.99); q != 1<<20 {
		t.Errorf("p99 = %d, want %d", q, 1<<20)
	}
	if m := s.Mean(); m < 90000 || m > 92000 {
		t.Errorf("Mean = %v", m)
	}
	// Non-positive values land in bucket 0 without panicking.
	h.Observe(0)
	h.Observe(-5)
	if got := h.Snapshot().Buckets[0]; got != 2 {
		t.Errorf("bucket 0 = %d, want 2", got)
	}
}

func TestHistSnapshotMergeDelta(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(2000)
	b.Observe(10)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 3 || m.Sum != 2020 {
		t.Errorf("merged = %+v", m)
	}
	prev := a.Snapshot()
	a.Observe(500000)
	d := a.Snapshot().Delta(prev)
	if d.Count != 1 || d.Sum != 500000 {
		t.Errorf("delta = %+v", d)
	}
	if q := d.Quantile(0.5); q != BucketBound(bucketOf(500000)) {
		t.Errorf("delta p50 = %d", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
				_ = h.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Errorf("Count = %d, want 8000", got)
	}
}

func TestTimingsSnapshotSkipsEmpty(t *testing.T) {
	var tm Timings
	tm.ObserveCall(8, "cudaLaunch", 0, 5000)
	snap := tm.Snapshot()
	if len(snap) != 2 {
		t.Errorf("Snapshot keys = %v, want launch_latency and call.cudaLaunch only", snap)
	}
	// One histogram under two names: the launch call's observation is
	// launch_latency's.
	if snap["launch_latency"].Count != 1 || snap["call.cudaLaunch"].Count != 1 || tm.Launch.Snapshot().Count != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	start := tr.Start()
	tr.Span("x", 1, start, -1, "")
	tr.Observe(nil, 0, 5) // must not panic
}

func TestWriteChromeTrace(t *testing.T) {
	rootID, childID := NewSpanID(), NewSpanID()
	head := ChromeProcess{
		Name: "node-a",
		Spans: []Span{{
			ID: rootID, Ctx: 1, Phase: "offload",
			Start: time.Millisecond, End: 5 * time.Millisecond, Device: -1,
		}},
		Events: []Event{{Time: 2 * time.Millisecond, Kind: KindOffload, Ctx: 1, Device: -1}},
	}
	peer := ChromeProcess{
		Name: "node-b",
		Spans: []Span{{
			ID: childID, Parent: rootID, Ctx: 1, Phase: "call.cudaLaunch",
			Start: 2 * time.Millisecond, End: 4 * time.Millisecond, Device: 0,
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, head, peer); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e["ph"].(string))
	}
	joined := strings.Join(phases, "")
	// Two process_name metadata records, the spans, the instant event,
	// and a flow pair for the cross-process parent link.
	for _, want := range []string{"M", "X", "i", "s", "f"} {
		if !strings.Contains(joined, want) {
			t.Errorf("export missing ph=%q events: %v", want, phases)
		}
	}
	if !strings.Contains(buf.String(), `"node-b"`) {
		t.Error("peer process name missing")
	}
}
