package trace

import "time"

// Tracer is a small handle layers below core (memmgr, faultinject)
// use to record spans and observe histograms without importing core.
// A nil *Tracer is valid and records nothing, so callers instrument
// unconditionally.
type Tracer struct {
	// Rec receives completed spans; may be nil.
	Rec *Recorder
	// Now returns current model time; required when Rec is set.
	Now func() time.Duration
	// Histograms fed by the instrumented layer; each may be nil.
	SwapDur   *Histogram
	SwapBytes *Histogram
	H2D       *Histogram
	D2H       *Histogram
}

// Start returns the current model time, to open a span, when Span will
// record one (Spans); otherwise 0, without reading the clock. The
// durations the instrumented layers observe are the model's own, so a
// span is the only thing they read the clock for.
func (t *Tracer) Start() time.Duration {
	if !t.Spans() {
		return 0
	}
	return t.Now()
}

// Spans reports whether Span calls will actually record anything.
// Hot paths consult it before building span detail strings, so the
// formatting cost is only paid when a recorder is attached.
func (t *Tracer) Spans() bool {
	return t != nil && t.Rec != nil && t.Now != nil
}

// Span records a span from start to now. No-op on a nil tracer or
// nil recorder.
func (t *Tracer) Span(phase string, ctx int64, start time.Duration, device int, detail string) {
	if t == nil || t.Rec == nil || t.Now == nil {
		return
	}
	t.Rec.RecordSpan(Span{
		ID: NewSpanID(), Ctx: ctx, Phase: phase,
		Start: start, End: t.Now(), Device: device, Detail: detail,
	})
}

// Observe records v into h on lane when both the tracer and histogram
// are non-nil.
func (t *Tracer) Observe(h *Histogram, lane int, v int64) {
	if t != nil && h != nil {
		h.ObserveLane(lane, v)
	}
}
