package core

import (
	"slices"

	"gvrt/internal/api"
	"gvrt/internal/memmgr"
)

// This file implements predictive prefetch (DESIGN.md §12): a per-
// context first-order predictor learns which working set follows each
// kernel launch, and a background worker speculatively restores that
// working set's residency during the application's CPU phase — so by
// the time the next launch arrives, its bind-time swap-in finds the
// data already on the device and the h2d transfer cost has been
// overlapped with host-side work instead of serialising with the
// kernel.
//
// The predictor key includes a fingerprint of the launch's pointer
// arguments, not just the kernel name: iterative applications often
// alternate the same kernel over flip-flop buffers, and a name-only
// predictor would keep predicting the set just used.
//
// Speculation is strictly best-effort and must never make anyone
// slower, so the worker:
//   - acquires the context's service lock with TryLock only — an
//     application mid-call is never delayed;
//   - performs no swapping of any kind — if the predicted set does not
//     fit in free device memory, the prediction is dropped (a forced
//     eviction on a guess could thrash a co-tenant or the context's
//     own live set);
//   - touches nothing when the context is unbound — prefetch must not
//     trigger binding, which is the scheduler's decision.

// launchKey identifies a launch for prediction purposes.
type launchKey struct {
	kernel string
	args   uint64
}

// argsFingerprint hashes the launch's virtual pointer arguments
// (FNV-1a over the raw pointer words, order-sensitive).
func argsFingerprint(ptrs []api.DevPtr) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range ptrs {
		v := uint64(p)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// prefetchReq asks the worker to restore one context's predicted
// working set.
type prefetchReq struct {
	ctx  *Context
	ptrs []api.DevPtr
}

// notePrediction records the observed launch transition and, when the
// predictor knows what follows this launch, hands the predicted
// working set to the background worker. Called at the end of a
// successful launch, under ctx.mu.
func (rt *Runtime) notePrediction(ctx *Context, call api.LaunchCall) {
	if rt.cfg.DisablePrefetch {
		return
	}
	if ctx.predictor == nil {
		ctx.predictor = make(map[launchKey][]api.DevPtr)
	}
	key := launchKey{kernel: call.Kernel, args: argsFingerprint(call.PtrArgs)}
	if ctx.hasLastLaunch {
		prev := ctx.predictor[ctx.lastLaunch]
		if !samePtrs(prev, call.PtrArgs) {
			ctx.predictor[ctx.lastLaunch] = append([]api.DevPtr(nil), call.PtrArgs...)
		}
	}
	ctx.lastLaunch, ctx.hasLastLaunch = key, true

	next, ok := ctx.predictor[key]
	if !ok {
		return
	}
	// Only bother the worker when some predicted entry actually needs
	// residency work.
	need := false
	for _, p := range next {
		pte, _, err := rt.mm.ResolveFor(ctx.id, p, false)
		if err != nil {
			continue
		}
		if !pte.IsAllocated || pte.ToCopy2Dev {
			need = true
			break
		}
	}
	if !need {
		return
	}
	select {
	case rt.prefetchCh <- prefetchReq{ctx: ctx, ptrs: next}:
	default:
		rt.prefetchSkipped.Add(1)
	}
}

// samePtrs reports whether two pointer slices are identical.
func samePtrs(a, b []api.DevPtr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// consumePrefetchMarks counts, for a launch's resolved working set, how
// many entries a speculative swap-in left fully resident, and clears
// the marks. Called at the top of the launch path, under ctx.mu.
func (rt *Runtime) consumePrefetchMarks(ptes []*memmgr.PTE) {
	for _, pte := range ptes {
		if !pte.Prefetched {
			continue
		}
		pte.Prefetched = false
		if pte.IsAllocated && !pte.ToCopy2Dev {
			rt.prefetchHits.Add(1)
		}
	}
}

// prefetchWorker drains prefetch requests until the runtime closes.
func (rt *Runtime) prefetchWorker() {
	for {
		select {
		case <-rt.quit:
			return
		case req := <-rt.prefetchCh:
			rt.doPrefetch(req)
		}
	}
}

// doPrefetch restores the predicted working set's residency if — and
// only if — it can do so without delaying or evicting anyone.
func (rt *Runtime) doPrefetch(req prefetchReq) {
	ctx := req.ctx
	if !ctx.mu.TryLock() {
		// The context is mid-call: the prediction arrived too late.
		rt.prefetchSkipped.Add(1)
		return
	}
	defer ctx.mu.Unlock()
	if ctx.exited.Load() {
		return
	}
	v := ctx.vgpu.Load()
	if v == nil || v.dead.Load() || !v.ds.healthy.Load() {
		rt.prefetchSkipped.Add(1)
		return
	}
	start := rt.clock.Now()
	ptes := make([]*memmgr.PTE, 0, len(req.ptrs))
	var missing uint64
	pending := false
	for _, p := range req.ptrs {
		pte, _, err := rt.mm.ResolveFor(ctx.id, p, false)
		if err != nil || slices.Contains(ptes, pte) {
			continue // freed or reallocated since the prediction, or a repeat
		}
		ptes = append(ptes, pte)
		if !pte.IsAllocated {
			missing += pte.Size
			pending = true
		} else if pte.ToCopy2Dev {
			pending = true
		}
	}
	if !pending {
		return
	}
	if missing > v.ds.dev.Available() {
		// Never evict on speculation.
		rt.prefetchSkipped.Add(1)
		return
	}
	for _, pte := range ptes {
		if err := rt.mm.EnsureAllocated(pte, v.cuctx); err != nil {
			rt.prefetchSkipped.Add(1)
			return
		}
	}
	if err := rt.mm.FlushDeferred(ptes, v.cuctx); err != nil {
		rt.prefetchSkipped.Add(1)
		return
	}
	for _, pte := range ptes {
		pte.Prefetched = true
	}
	rt.prefetchIssued.Add(1)
	rt.timings.Prefetch.Observe(int64(rt.clock.Now() - start))
}
