package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/memmgr"
	"gvrt/internal/trace"
)

// This file implements the kernel-launch path: delayed binding, the
// launch-row actions of Table 1 (device allocation + deferred bulk
// transfers), intra- and inter-application swapping (§4.5), the
// unbind-and-retry fallback, and failure recovery by replay (§4.6).

// launch services a cudaLaunch. The caller holds ctx.mu.
func (rt *Runtime) launch(ctx *Context, call api.LaunchCall) error {
	launchStart := rt.clock.Now()
	defer func() {
		lat := int64(rt.clock.Now() - launchStart)
		rt.timings.Launch.Observe(lat)
		if ctx.tm != nil {
			// gpuTimeNS was attributed at the Exec site; here the bundle
			// gets only the end-to-end latency observation (caller holds
			// ctx.mu; Observe is lock-free).
			ctx.tm.Launch.Observe(lat)
		}
	}()
	meta, _, err := ctx.findKernel(call.Kernel)
	if err != nil {
		return err
	}
	if meta.UsesDynamicAlloc && !ctx.pinned.Load() {
		// Applications that allocate device memory from kernels are
		// served but excluded from sharing and dynamic scheduling (§1).
		ctx.pinned.Store(true)
		rt.logf("ctx %d pinned: kernel %s uses dynamic device allocation", ctx.id, call.Kernel)
	}
	if meta.UsesNestedPointers {
		// Nested traversals require registered nested structures; the
		// runtime accepts the launch either way, but unregistered use
		// would break pointer consistency, so validate eagerly.
		if !ctx.hasNestedRegistration(call.PtrArgs) {
			return api.ErrUnsupported
		}
	}

	// Resolve the virtual pointer arguments; a bad pointer is rejected
	// here, before ever reaching the device (§4.5).
	ptes, offs, err := rt.resolveArgs(ctx, call.PtrArgs, ctx.scratchPTEs[:0], ctx.scratchOffs[:0])
	ctx.scratchPTEs, ctx.scratchOffs = ptes[:0], offs[:0]
	if err != nil {
		return err
	}

	kernelTime := time.Duration(call.Launches()) * meta.BaseTime
	ctx.nextKernelNS.Store(int64(kernelTime))

	// The launch's working set must fit the most capable device — the
	// runtime's standing assumption (§6, Related Work discussion).
	if err := rt.checkFits(ptes); err != nil {
		return err
	}

	// Credit the prefetcher for any entry a speculative swap-in left
	// fully resident, before the residency work below consumes the win.
	rt.consumePrefetchMarks(ptes)

	for attempt := 0; ; attempt++ {
		v, err := rt.ensureBound(ctx)
		if err != nil {
			return err
		}
		if v == nil {
			continue // bound, then lost to a device failure: start over
		}
		switch err := rt.runKernel(ctx, v, call, ptes, offs); {
		case err == nil:
			// Residency achieved and the kernel ran.
		case errors.Is(err, api.ErrDeviceUnavailable):
			// runKernel has marked the dead device failed, so recovery
			// re-binds elsewhere instead of spinning on the corpse.
			if rerr := rt.recover(ctx); rerr != nil {
				return rerr
			}
			continue
		case errors.Is(err, api.ErrMemoryAllocation):
			// Could not acquire memory on this device even after
			// swapping: unbind and retry later, possibly on another
			// device (§4.5). Backoff grows with consecutive failures
			// so conflicting applications do not thrash the swap area.
			rt.unbindSelf(ctx, v)
			rt.unbindRetries.Add(1)
			mult := attempt + 1
			if mult > 8 {
				mult = 8
			}
			rt.clock.Sleep(rt.cfg.backoff() * time.Duration(mult))
			continue
		default:
			return err
		}

		ctx.gpuTimeNS.Add(int64(kernelTime))
		rt.gpuTimeNS.Add(int64(kernelTime))
		if ctx.tm != nil {
			ctx.tm.AddGPUTime(int64(kernelTime))
		}
		ctx.recordReplayResolved(call, ptes)

		// Re-fence immediately before the commit: the kernel took model
		// time, and ownership may have moved while it ran. A deposed
		// owner's launch must not reach the journal — the new owner
		// replays from the last durable commit, and a late write
		// slipping in here would fork the session's history.
		if err := rt.fence(ctx); err != nil {
			return err
		}

		// Write-ahead commit: the launch is only acknowledged once the
		// journal has it durably; a failure here surfaces to the client
		// instead of a success it could lose to a crash.
		if err := rt.journalCommit(ctx, call); err != nil {
			return err
		}

		if rt.cfg.AutoCheckpoint > 0 && kernelTime >= rt.cfg.AutoCheckpoint {
			if err := rt.checkpoint(ctx); err != nil {
				return err
			}
		}
		// Teach the predictor this transition and, if it already knows
		// what follows, start restoring that working set in the
		// background while the application runs its CPU phase.
		rt.notePrediction(ctx, call)
		return nil
	}
}

// findKernel locates kernel metadata in the context's registered
// binaries.
func (ctx *Context) findKernel(name string) (api.KernelMeta, string, error) {
	for id, fb := range ctx.binaries {
		if meta, err := fb.FindKernel(name); err == nil {
			return meta, id, nil
		}
	}
	return api.KernelMeta{}, "", api.ErrNotRegistered
}

// hasNestedRegistration reports whether at least one pointer argument
// has a registered nested structure.
func (ctx *Context) hasNestedRegistration(args []api.DevPtr) bool {
	for _, p := range args {
		pte, _, err := ctx.rt.mm.Resolve(p)
		if err == nil && pte.Nested != nil {
			return true
		}
	}
	return false
}

// recordReplay appends the launch to the context's replay log (§4.6).
func (ctx *Context) recordReplay(call api.LaunchCall) {
	ctx.replay = append(ctx.replay, call)
	for _, p := range call.PtrArgs {
		if pte, _, err := ctx.rt.mm.Resolve(p); err == nil {
			ctx.replayRefs[pte.Virtual] = true
		}
	}
}

// recordReplayResolved is recordReplay for the launch hot path, which
// already resolved every pointer argument: reuse those entries instead
// of a second page-table lookup per argument.
func (ctx *Context) recordReplayResolved(call api.LaunchCall, ptes []*memmgr.PTE) {
	ctx.replay = append(ctx.replay, call)
	for _, pte := range ptes {
		ctx.replayRefs[pte.Virtual] = true
	}
}

// resolveArgs appends the entry and offset behind each virtual pointer
// argument to ptes and offs. A pointer that resolves to nothing, or to
// another context's entry, is rejected before it can reach a device.
func (rt *Runtime) resolveArgs(ctx *Context, args []api.DevPtr, ptes []*memmgr.PTE, offs []uint64) ([]*memmgr.PTE, []uint64, error) {
	for _, p := range args {
		pte, off, err := rt.mm.Resolve(p)
		if err != nil || pte.CtxID() != ctx.id {
			return ptes, offs, api.ErrInvalidDevicePointer
		}
		ptes = append(ptes, pte)
		offs = append(offs, off)
	}
	return ptes, offs, nil
}

// runKernel is the step launch and replay share: make the resolved
// working set resident on v, launch there with device addresses, and
// apply Figure 4's post-launch transition. A device that dies under the
// kernel is marked failed before the error returns.
func (rt *Runtime) runKernel(ctx *Context, v *vGPU, call api.LaunchCall, ptes []*memmgr.PTE, offs []uint64) error {
	rsp := rt.beginSpan("swap-in", ctx.id, ctx.curSpan)
	err := rt.ensureResident(ctx, v, ptes)
	rsp.endIfTimed(v.ds.index, "", err)
	if err != nil {
		return err
	}
	devCall := call
	devCall.PtrArgs = ctx.scratchArgs[:0]
	for i, pte := range ptes {
		devCall.PtrArgs = append(devCall.PtrArgs, pte.Device+api.DevPtr(offs[i]))
	}
	ctx.scratchArgs = devCall.PtrArgs
	esp := rt.beginSpan("launch", ctx.id, ctx.curSpan)
	err = v.cuctx.Launch(devCall)
	esp.end(v.ds.index, call.Kernel, err)
	if errors.Is(err, api.ErrDeviceUnavailable) {
		rt.onDeviceFailure(v.ds)
	}
	if err == nil {
		rt.mm.MarkKernelEffects(ptes, call.ReadOnly)
	}
	return err
}

// ensureBound returns the vGPU the context is bound to, binding it if
// necessary and clearing any pending recovery first; nil only when a
// recovery lost its binding again. Callers use the returned slot rather
// than load ctx.vgpu a second time: a device failure can clear it at any
// moment, and a dead slot answers ErrDeviceUnavailable where nil would
// crash. Lock-free on the already-bound fast path.
func (rt *Runtime) ensureBound(ctx *Context) (*vGPU, error) {
	if ctx.needsRecovery.CompareAndSwap(true, false) {
		err := rt.recover(ctx)
		return ctx.vgpu.Load(), err
	}
	if v := ctx.vgpu.Load(); v != nil {
		return v, nil
	}
	return rt.bind(ctx)
}

// checkFits rejects launches whose working set cannot fit any healthy
// device even when fully alone.
func (rt *Runtime) checkFits(ptes []*memmgr.PTE) error {
	var need uint64
	for i, pte := range ptes {
		if !slices.Contains(ptes[:i], pte) {
			need += pte.Size
		}
	}
	reservation := rt.crt.ContextReservation()
	for _, ds := range rt.deviceList() {
		if !ds.healthy.Load() {
			continue
		}
		reserve := uint64(ds.nslots) * reservation
		if ds.dev.Capacity() >= need+reserve {
			return nil
		}
	}
	return api.ErrMemoryAllocation
}

// ensureResident makes every referenced entry device-resident on the
// context's bound vGPU, swapping as needed. It returns
// ErrMemoryAllocation when the device cannot be freed up (caller then
// unbinds and retries), ErrDeviceUnavailable on device failure.
//
// Following §4.5, the runtime first uses its accounting (capacity,
// availability and per-context usage) to make room for the launch's
// whole missing working set before issuing any allocation; only then
// does it allocate, falling back to the allocator's return code to
// catch fragmentation.
func (rt *Runtime) ensureResident(ctx *Context, v *vGPU, ptes []*memmgr.PTE) error {
	// An entry behind several arguments counts once; launches reference
	// a handful of buffers, so a quadratic scan beats allocating a set.
	var missing uint64
	for i, pte := range ptes {
		if !pte.IsAllocated && !slices.Contains(ptes[:i], pte) {
			missing += pte.Size
		}
	}
	// Accounting-first: free enough device memory for the whole launch.
	for attempt := 0; missing > v.ds.dev.Available(); attempt++ {
		if attempt > 64 {
			return api.ErrMemoryAllocation
		}
		needed := missing - v.ds.dev.Available()
		if rt.intraSwap(ctx, v, ptes, needed) {
			continue
		}
		if !rt.cfg.DisableInterSwap && rt.interSwap(ctx, v, needed) {
			continue
		}
		return api.ErrMemoryAllocation
	}
	for _, pte := range ptes {
		for {
			err := rt.mm.EnsureAllocated(pte, v.cuctx)
			if err == nil {
				break
			}
			if !errors.Is(err, api.ErrMemoryAllocation) {
				if errors.Is(err, api.ErrDeviceUnavailable) {
					rt.onDeviceFailure(v.ds)
				}
				return err
			}
			// Fragmentation (or a concurrent allocation) bit after the
			// accounting said we fit. First try intra-application
			// swap: spill an entry of our own that this launch does
			// not reference (§4.5). Evict one entry at a time here —
			// the accounting already said we fit, so a small hole is
			// usually enough and over-evicting would churn the swap
			// area.
			if rt.intraSwap(ctx, v, ptes, 1) {
				continue
			}
			// Then inter-application swap: ask a co-located context in
			// a CPU phase to vacate the device (§4.5).
			if !rt.cfg.DisableInterSwap && rt.interSwap(ctx, v, pte.Size) {
				continue
			}
			return api.ErrMemoryAllocation
		}
	}
	// With the whole working set allocated, land the deferred transfers
	// of this binding epoch in one batched copy-engine submission.
	if err := rt.mm.FlushDeferred(ptes, v.cuctx); err != nil {
		if errors.Is(err, api.ErrDeviceUnavailable) {
			rt.onDeviceFailure(v.ds)
		}
		return err
	}
	return nil
}

// intraSwap spills the context's own resident entries that the pending
// launch does not reference, until at least needed bytes have been
// selected (or no victims remain). Victims are chosen in page-table
// order — the same one-at-a-time order the accounting loop used to
// produce — but are swapped out as a single batched submission, so
// displacing a whole working set costs one d2h engine round trip
// instead of one per entry. Returns true if any entry was swapped.
func (rt *Runtime) intraSwap(ctx *Context, v *vGPU, exclude []*memmgr.PTE, needed uint64) bool {
	// Snapshot and victim list share one reusable buffer: victims are
	// filtered in place, behind the read position.
	table := rt.mm.AppendEntries(ctx.scratchVictims[:0], ctx.id)
	victims := table[:0]
	var freed uint64
	for _, pte := range table {
		if !pte.IsAllocated || referenced(exclude, pte) {
			continue
		}
		victims = append(victims, pte)
		freed += pte.Size
		if freed >= needed {
			break
		}
	}
	n, err := rt.mm.SwapOutEntries(victims, v.cuctx)
	rt.intraSwaps.Add(int64(n))
	if rt.cfg.Logf != nil || rt.cfg.Trace != nil {
		for _, pte := range victims[:n] {
			rt.logf("ctx %d intra-app swapped entry %#x (%d bytes)", ctx.id, uint64(pte.Virtual), pte.Size)
			rt.event(trace.KindIntraSwap, ctx.id, 0, v.ds.index, "")
		}
	}
	clear(table) // parked scratch must not pin entries
	ctx.scratchVictims = table[:0]
	return err == nil && n > 0
}

// referenced reports whether pte belongs to the working set: it is one
// of the set's entries, or a member some nested entry of the set points
// into (virtual ranges never overlap, so containment identifies it).
func referenced(set []*memmgr.PTE, pte *memmgr.PTE) bool {
	for _, e := range set {
		if e == pte {
			return true
		}
		if e.Nested != nil {
			for _, m := range e.Nested.Members {
				if m >= pte.Virtual && m < pte.Virtual+api.DevPtr(pte.Size) {
					return true
				}
			}
		}
	}
	return false
}

// interSwap asks a context sharing the device to vacate it. The victim
// must be using at least the amount of memory required, must not be
// pinned, and must be in a CPU phase — i.e. its service lock can be
// taken without blocking; "an application in the middle of a kernel
// call may not [accept]" (§4.5). On success the victim's whole page
// table is swapped out and it is unbound from its vGPU.
func (rt *Runtime) interSwap(ctx *Context, v *vGPU, needed uint64) bool {
	now := rt.clock.Now()
	minIdle := rt.cfg.minVictimIdle()
	// Each slot's occupant is read under the shard lock and re-checked
	// under the victim's own lock below.
	for _, slot := range v.ds.slots() {
		victim := v.ds.boundTo(slot)
		if victim == nil || victim == ctx || victim.pinned.Load() || victim.exited.Load() {
			continue
		}
		// Only a context genuinely in a CPU phase may honour the
		// request; one between back-to-back GPU calls may not (§4.5).
		if now-time.Duration(victim.lastActiveNS.Load()) < minIdle {
			continue
		}
		if !victim.mu.TryLock() {
			continue // mid-call: the request is not honoured
		}
		still := victim.vgpu.Load() == slot && !victim.exited.Load()
		if !still {
			victim.mu.Unlock()
			continue
		}
		// The victim must be "using the amount of memory required"
		// (§4.5); its page-table flags are only safe to read under its
		// service lock, so the check happens here.
		if rt.mm.ResidentBytes(victim.id) < needed {
			victim.mu.Unlock()
			continue
		}
		_, err := rt.mm.SwapOutAll(victim.id, slot.cuctx)
		if err != nil {
			victim.mu.Unlock()
			if errors.Is(err, api.ErrDeviceUnavailable) {
				rt.onDeviceFailure(v.ds)
			}
			return false
		}
		victim.clearReplay() // fully swapped out == checkpointed
		rt.journalSnapshotLogged(victim.id)
		victim.vgpu.Store(nil)
		rt.mu.Lock()
		rt.releaseVGPULocked(slot)
		rt.mu.Unlock()
		victim.mu.Unlock()
		rt.interSwaps.Add(1)
		if rt.cfg.Logf != nil {
			rt.logf("ctx %d inter-app swapped out ctx %d", ctx.id, victim.id)
		}
		rt.event(trace.KindInterSwap, ctx.id, victim.id, v.ds.index, "")
		return true
	}
	return false
}

// unbindSelf swaps out the context's own entries and releases its vGPU
// so it can retry later, possibly on a different device.
func (rt *Runtime) unbindSelf(ctx *Context, v *vGPU) {
	if v == nil {
		return
	}
	if _, err := rt.mm.SwapOutAll(ctx.id, v.cuctx); err != nil {
		if errors.Is(err, api.ErrDeviceUnavailable) {
			rt.onDeviceFailure(v.ds)
			ctx.needsRecovery.Store(true)
			return
		}
		rt.mm.InvalidateResidency(ctx.id)
	}
	ctx.clearReplay()
	rt.journalSnapshotLogged(ctx.id)
	if ctx.vgpu.CompareAndSwap(v, nil) {
		rt.mu.Lock()
		rt.releaseVGPULocked(v)
		rt.mu.Unlock()
	}
	rt.event(trace.KindUnbind, ctx.id, 0, v.ds.index, "memory retry")
}

// onDeviceFailure marks a device failed and detaches every context
// bound to it; each context recovers lazily on its next device-touching
// call (§4.6: failed contexts are enqueued for recovery).
func (rt *Runtime) onDeviceFailure(ds *deviceState) {
	ds.mu.Lock()
	if !ds.healthy.Load() {
		ds.mu.Unlock()
		return
	}
	ds.healthy.Store(false)
	for _, v := range ds.vgpus {
		v.dead.Store(true)
		if c := v.bound; c != nil {
			c.needsRecovery.Store(true)
			c.vgpu.Store(nil)
			v.bound = nil
		}
	}
	ds.mu.Unlock()
	rt.deviceFailures.Add(1)
	rt.logf("device %d (%s) failed", ds.index, ds.dev.Spec().Name)
	rt.event(trace.KindFailure, 0, 0, ds.index, ds.dev.Spec().Name)
	// Start watching for the fault to clear so the device can be hot
	// re-admitted (health.go).
	rt.kickHealthMonitor()
}

// recover restores a context after its device failed or was removed:
// residency is invalidated (dirty device-only entries are marked lost),
// the context re-binds to a healthy device, and the kernels logged
// since the last checkpoint are replayed to regenerate the lost state
// (§4.6; the page table + swap area are the implicit checkpoint, and —
// unlike NVCR — only the memory operations required by not-yet-executed
// kernels are replayed, lazily via the ToCopy2Dev flags).
func (rt *Runtime) recover(ctx *Context) (err error) {
	sp := rt.beginSpan("recovery", ctx.id, ctx.curSpan)
	replayed := 0
	defer func() {
		sp.end(-1, fmt.Sprintf("%d kernels replayed", replayed), err)
	}()
	if v := ctx.vgpu.Load(); v != nil && (v.dead.Load() || !v.ds.healthy.Load()) {
		ctx.vgpu.Store(nil)
	}
	ctx.needsRecovery.Store(false)
	stillBound := ctx.vgpu.Load() != nil

	if !stillBound {
		rt.mm.InvalidateResidency(ctx.id)
		if _, err := rt.bind(ctx); err != nil {
			return err
		}
	}
	rt.recoveries.Add(1)

	// Replay the logged kernels in order, resolving into slices of the
	// replay's own: the interrupted launch still holds ctx.scratchPTEs.
	replay := append([]api.LaunchCall(nil), ctx.replay...)
	var ptes []*memmgr.PTE
	var offs []uint64
	for _, call := range replay {
		v := rt.boundVGPU(ctx)
		if v == nil {
			if v, err = rt.bind(ctx); err != nil {
				return err
			}
		}
		if ptes, offs, err = rt.resolveArgs(ctx, call.PtrArgs, ptes[:0], offs[:0]); err != nil {
			return err
		}
		if err := rt.runKernel(ctx, v, call, ptes, offs); err != nil {
			if errors.Is(err, api.ErrDeviceUnavailable) {
				return rt.recover(ctx)
			}
			return err
		}
		rt.replays.Add(1)
		replayed++
	}
	rt.mm.ClearLost(ctx.id)
	rt.logf("ctx %d recovered (%d kernels replayed)", ctx.id, len(replay))
	rt.event(trace.KindRecovery, ctx.id, 0, -1, "")
	return nil
}

// FailDevice injects a device failure (test/experiment hook): the
// physical device starts erroring and the runtime notices immediately.
func (rt *Runtime) FailDevice(index int) {
	ds := rt.deviceAt(index)
	if ds == nil {
		return
	}
	ds.dev.Fail()
	rt.onDeviceFailure(ds)
}
