package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// SpanID identifies one span. IDs are unique within a process; zero
// means "no span" and is used for roots with no parent. Because the
// counter is process-global (not per-recorder), a span ID minted on
// one node can safely be carried across an offload hop and used as a
// parent on the peer without colliding with the peer's own spans in a
// merged trace — the pid/tid namespace of the exporter disambiguates
// the rare cross-process collision.
type SpanID uint64

var spanIDCounter atomic.Uint64

// NewSpanID mints a fresh non-zero span ID.
func NewSpanID() SpanID {
	return SpanID(spanIDCounter.Add(1))
}

// Span is one timed phase of runtime work, in model time. Spans form
// a forest: a kernel launch span parents queue-wait, bind, swap-in
// and journal-commit children, and an offload span on the head node
// parents the per-call spans recorded by the peer that served them.
type Span struct {
	// ID is the span's unique ID (never zero for recorded spans).
	ID SpanID
	// Parent is the enclosing span's ID, zero for roots.
	Parent SpanID
	// Ctx is the acting context's ID (0 when not applicable).
	Ctx int64
	// Phase is a short label such as "call.cudaLaunch", "queue-wait",
	// "bind", "swap-in", "h2d", "launch" or "journal-commit".
	Phase string
	// Start and End bracket the span in model time.
	Start time.Duration
	End   time.Duration
	// Device is the device ordinal involved, -1 when not applicable.
	Device int
	// Detail is a short human-readable annotation.
	Detail string
	// Err is a one-line error description when the phase failed.
	Err string
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// String implements fmt.Stringer.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.6fs %10s %-16s", s.Start.Seconds(), s.Dur(), s.Phase)
	if s.Ctx != 0 {
		fmt.Fprintf(&b, " ctx=%d", s.Ctx)
	}
	if s.Parent != 0 {
		fmt.Fprintf(&b, " parent=%d", s.Parent)
	}
	if s.Device >= 0 {
		fmt.Fprintf(&b, " dev=%d", s.Device)
	}
	if s.Detail != "" {
		fmt.Fprintf(&b, " %s", s.Detail)
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%q", s.Err)
	}
	return b.String()
}

// RecordSpan appends a completed span, evicting the oldest when the
// span ring is full.
func (r *Recorder) RecordSpan(s Span) { r.spans.Put(s) }

// Spans returns the retained spans in completion order.
func (r *Recorder) Spans() []Span {
	out, _ := r.spans.Snapshot()
	return out
}

// SpanTotal reports how many spans were ever recorded (including
// evicted ones).
func (r *Recorder) SpanTotal() uint64 { return r.spans.Total() }

// SlowestSpans returns up to n retained spans ordered by descending
// duration — the /tracez view.
func (r *Recorder) SlowestSpans(n int) []Span {
	out := r.Spans()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Dur() > out[j].Dur() })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
