package api

// WithSpan wraps a forwarded call with the forwarder's span ID so the
// serving node can parent its per-call spans under the hop that sent
// them — this is how a kernel launch's causal trace crosses an
// offload boundary (§4.7). The wrapper travels over both the TCP
// transport (as a flag on the wrapped call's kind plus the frame
// header's span-parent field, see KindSpan) and the in-process pipe;
// runtimes unwrap it on receipt, so application frontends never see it.
// It wraps exactly one call that is not itself a WithSpan — the wire
// cannot say anything else — so a second forwarding hop replaces the
// parent instead of nesting.
type WithSpan struct {
	// Parent is the forwarder's span ID (trace.SpanID), zero for none.
	Parent uint64
	// Call is the wrapped call.
	Call Call
}

// CallName implements Call by delegating to the wrapped call.
func (w WithSpan) CallName() string {
	if w.Call == nil {
		return "gvrtWithSpan"
	}
	return w.Call.CallName()
}
