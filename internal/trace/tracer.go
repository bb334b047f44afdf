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
	// Attr, when set, receives the same byte-level accounting the
	// instrumented layer adds to its own counters, keyed by the owning
	// context so the caller can attribute it (per tenant). It must be
	// safe to call from swap paths: implementations may not take locks.
	Attr func(ctx int64, kind AttrKind, v int64)
}

// AttrKind names a per-context attributable quantity reported through
// Tracer.Attr.
type AttrKind uint8

const (
	// AttrSwapBytes: bytes spilled device→swap for ctx (dirty syncs
	// only — mirrors the runtime's swap_bytes counter, not the
	// per-operation size histogram).
	AttrSwapBytes AttrKind = iota
	// AttrSwapOps: swap-out operations completed for ctx.
	AttrSwapOps
	// AttrCheckpointBytes: bytes flushed device→swap by checkpoints.
	AttrCheckpointBytes
)

// Start returns the current model time, or 0 on a nil tracer.
func (t *Tracer) Start() time.Duration {
	if t == nil || t.Now == nil {
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

// Observe records v into h when both the tracer and histogram are
// non-nil.
func (t *Tracer) Observe(h *Histogram, v int64) {
	if t == nil || h == nil {
		return
	}
	h.Observe(v)
}

// Attribute reports an attributable quantity for ctx. No-op on a nil
// tracer or unset Attr sink.
func (t *Tracer) Attribute(ctx int64, kind AttrKind, v int64) {
	if t == nil || t.Attr == nil {
		return
	}
	t.Attr(ctx, kind, v)
}
