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

// launch services a cudaLaunch (timed by the dispatcher); ctx.mu is held.
func (rt *Runtime) launch(ctx *Context, call *api.LaunchCall) error {
	meta, _, ok := ctx.binaries.Find(call.Kernel)
	if !ok {
		return api.ErrNotRegistered
	}
	if meta.UsesDynamicAlloc && !ctx.pinned.Load() {
		// Applications that allocate device memory from kernels are
		// served but excluded from sharing and dynamic scheduling (§1).
		ctx.pinned.Store(true)
		rt.eventf(trace.KindNote, ctx.id, -1, "pinned: kernel %s uses dynamic device allocation", call.Kernel)
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

	for n := 0; ; n++ {
		ran, err := rt.attemptKernel(ctx, call, ptes, offs, n)
		if err != nil {
			return err
		}
		if ran {
			break
		}
	}

	ctx.gpuTimeNS.Add(int64(kernelTime))
	rt.gpuTimeNS.Add(ctx.lane, int64(kernelTime))
	if ctx.tm != nil {
		ctx.tm.AddGPUTime(ctx.lane, int64(kernelTime))
	}
	kept := ctx.recordReplayResolved(call, ptes)

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
	if err := rt.journalCommit(ctx, kept); err != nil {
		return err
	}

	if rt.cfg.AutoCheckpoint > 0 && kernelTime >= rt.cfg.AutoCheckpoint {
		return rt.checkpoint(ctx)
	}
	return nil
}

// hasNestedRegistration reports whether at least one pointer argument
// has a registered nested structure.
func (ctx *Context) hasNestedRegistration(args []api.DevPtr) bool {
	for _, p := range args {
		pte, _, err := ctx.rt.mm.ResolveIn(ctx.space, p, false)
		if err == nil && pte.Nested != nil {
			return true
		}
	}
	return false
}

// recordReplay appends the launch to the context's replay log (§4.6).
// call's slices are retained as they are: a kept copy, or a call the
// runtime decoded itself.
func (ctx *Context) recordReplay(call api.LaunchCall) {
	ctx.replay = append(ctx.replay, call)
	for _, p := range call.PtrArgs {
		if pte, _, err := ctx.rt.mm.ResolveIn(ctx.space, p, false); err == nil {
			ctx.replayRefs[pte.Virtual] = true
		}
	}
}

// recordReplayResolved is recordReplay for a received launch, whose
// pointer arguments the hot path already resolved: reuse those entries
// instead of a second page-table lookup per argument. The call is the
// sender's, so the log keeps a copy, which it returns.
func (ctx *Context) recordReplayResolved(call *api.LaunchCall, ptes []*memmgr.PTE) api.LaunchCall {
	kept := *call
	kept.PtrArgs = ctx.keptPtrs.keep(call.PtrArgs)
	kept.Scalars = ctx.keptScalars.keep(call.Scalars)
	kept.ReadOnly = ctx.keptReadOnly.keep(call.ReadOnly)
	ctx.replay = append(ctx.replay, kept)
	for _, pte := range ptes {
		ctx.replayRefs[pte.Virtual] = true
	}
	return kept
}

// argArena is one of a context's append-only argument arenas: the
// replay log's copies of a field of the launches it keeps (§4.6). A
// region is never reused — a full buffer is replaced, not rewound — so
// what a kept entry points into, which the journal and a migration may
// hold too, never changes. A slice equal to one of the last few kept is
// shared instead of copied: a session that relaunches with the same
// arguments copies nothing.
type argArena[T comparable] struct {
	buf    []T
	recent [4][]T
	next   int
}

func (a *argArena[T]) keep(s []T) []T {
	if len(s) == 0 {
		return nil
	}
	for _, r := range a.recent {
		if slices.Equal(r, s) {
			return r
		}
	}
	if cap(a.buf)-len(a.buf) < len(s) {
		a.buf = make([]T, 0, max(min(2*cap(a.buf), 512), 16, len(s)))
	}
	a.buf = append(a.buf, s...)
	kept := a.buf[len(a.buf)-len(s) : len(a.buf) : len(a.buf)]
	a.recent[a.next%len(a.recent)] = kept
	a.next++
	return kept
}

// resolveArgs appends the entry and offset behind each virtual pointer
// argument to ptes and offs. A pointer that resolves to nothing, or to
// another context's entry, is rejected before it can reach a device.
func (rt *Runtime) resolveArgs(ctx *Context, args []api.DevPtr, ptes []*memmgr.PTE, offs []uint64) ([]*memmgr.PTE, []uint64, error) {
	for _, p := range args {
		pte, off, err := rt.mm.ResolveIn(ctx.space, p, false)
		if err != nil {
			return ptes, offs, err
		}
		ptes = append(ptes, pte)
		offs = append(offs, off)
	}
	return ptes, offs, nil
}

// attemptKernel is the one step a kernel takes toward a device, for a
// fresh launch and a replayed one alike: recover or bind if the context
// has no live device, make the working set resident and run. It reports
// whether the kernel ran. false with a nil error means come round again —
// a recovery just ran (a replay's caller must re-read what is left of
// its log), the device died under the attempt (the context is flagged,
// so the next attempt recovers), or memory could not be had even after
// swapping, and the context has
// vacated its device and backed off to retry later, possibly elsewhere
// (§4.5). n counts the caller's consecutive attempts: the backoff grows
// with it so conflicting applications do not thrash the swap area.
func (rt *Runtime) attemptKernel(ctx *Context, call *api.LaunchCall, ptes []*memmgr.PTE, offs []uint64, n int) (bool, error) {
	if ctx.needsRecovery.CompareAndSwap(true, false) {
		return false, rt.recover(ctx)
	}
	// The slot is loaded once and used from here on: a device failure
	// can clear ctx.vgpu at any moment, and a dead slot answers
	// ErrDeviceUnavailable where nil would crash.
	v := ctx.vgpu.Load()
	if v == nil {
		var err error
		if v, err = rt.bind(ctx); err != nil {
			return false, err
		}
	}
	err := rt.runKernel(ctx, v, call, ptes, offs)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, api.ErrMemoryAllocation) {
		if err = rt.vacate(ctx, v); err == nil {
			rt.unbindRetries.Add(1)
			rt.event(trace.KindUnbind, ctx.id, 0, v.ds.index, "memory retry")
			rt.clock.Sleep(rt.cfg.backoff() * time.Duration(min(n+1, 8)))
			return false, nil
		}
	}
	if errors.Is(err, api.ErrDeviceUnavailable) {
		// Whoever saw the device die has marked it failed. Flag the
		// context here too, so the next attempt recovers even if the
		// failure did not find it on the slot.
		ctx.needsRecovery.Store(true)
		return false, nil
	}
	return false, err
}

// runKernel makes the resolved working set resident on v, launches
// there with device addresses, and applies Figure 4's post-launch
// transition. A device that dies under the kernel is marked failed
// before the error returns.
func (rt *Runtime) runKernel(ctx *Context, v *vGPU, call *api.LaunchCall, ptes []*memmgr.PTE, offs []uint64) error {
	rsp := rt.beginSpan("swap-in", ctx.id, ctx.curSpan)
	err := rt.ensureResident(ctx, v, ptes)
	rsp.endIfTimed(v.ds.index, "", err)
	if err != nil {
		return err
	}
	devCall := *call
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
	// Accounting-first: free enough device memory for the whole launch
	// (a launch whose entries are all resident asks the device nothing).
	for attempt := 0; missing > 0; attempt++ {
		avail := v.ds.dev.Available()
		if missing <= avail {
			break
		}
		if attempt > 64 {
			return api.ErrMemoryAllocation
		}
		needed := missing - avail
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
	table := rt.mm.AppendEntriesIn(ctx.scratchVictims[:0], ctx.space)
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
	s, err := rt.mm.SwapOutEntries(victims, v.cuctx)
	if ctx.tm != nil {
		ctx.tm.AddSwap(ctx.lane, s.Bytes, int64(s.Entries))
	}
	rt.intraSwaps.Add(int64(s.Entries))
	if rt.observed {
		for range victims[:s.Entries] {
			rt.event(trace.KindIntraSwap, ctx.id, 0, v.ds.index, "")
		}
	}
	clear(table) // parked scratch must not pin entries
	ctx.scratchVictims = table[:0]
	return err == nil && s.Entries > 0
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
		if rt.mm.ResidentBytesIn(victim.space) < needed {
			victim.mu.Unlock()
			continue
		}
		err := rt.vacate(victim, slot)
		victim.mu.Unlock()
		if err != nil {
			return false
		}
		rt.interSwaps.Add(1)
		rt.event(trace.KindInterSwap, ctx.id, victim.id, v.ds.index, "")
		return true
	}
	return false
}

// vacate is the one way a context leaves a device with its state
// (§4.5's unbind, §4.6's implicit checkpoint): everything resident is
// flushed to swap and — only once that has succeeded — the swap image
// is treated as the checkpoint it now is: the kernels it reflects leave
// the replay log (all of them, except that a recovery in progress has
// re-run only the log's head; the unreplayed tail stays), the journal is
// told, and the slot goes back to the scheduler. The caller holds
// ctx.mu, with v the slot ctx is bound to, and no scheduler lock.
//
// One failure policy: on a dead device the context is flagged for
// recovery with its log intact; on any other error nothing is dropped
// and nothing a live device holds is invalidated — the context stays
// bound, entries the flush had not reached stay resident — and the
// error goes back to the caller.
func (rt *Runtime) vacate(ctx *Context, v *vGPU) error {
	s, err := rt.mm.SwapOutAllIn(ctx.space, v.cuctx)
	if ctx.tm != nil {
		ctx.tm.AddSwap(ctx.lane, s.Bytes, int64(s.Entries))
	}
	if err != nil {
		if errors.Is(err, api.ErrDeviceUnavailable) {
			rt.onDeviceFailure(v.ds)
			ctx.needsRecovery.Store(true)
		}
		return err
	}
	ctx.trimReplay(len(ctx.replay) - ctx.unreplayed)
	rt.journalSnapshotNoted(ctx)
	if ctx.vgpu.CompareAndSwap(v, nil) {
		rt.mu.Lock()
		rt.releaseVGPULocked(v)
		rt.mu.Unlock()
	}
	return nil
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
	rt.event(trace.KindFailure, 0, 0, ds.index, ds.dev.Spec().Name)
	// Start watching for the fault to clear so the device can be hot
	// re-admitted (health.go).
	rt.kickHealthMonitor()
}

// recover restores a context after its device failed or was removed:
// residency is invalidated (dirty device-only entries are marked lost),
// and the kernels logged since the last checkpoint are replayed on a
// healthy device to regenerate the lost state (§4.6; the page table +
// swap area are the implicit checkpoint, and — unlike NVCR — only the
// memory operations required by not-yet-executed kernels are replayed,
// lazily via the ToCopy2Dev flags). ctx.unreplayed is the progress: a
// replay that has to vacate a full device keeps exactly that tail, one
// cut short by an error is resumed by the next call, and one whose
// device dies again starts over from the swap image.
func (rt *Runtime) recover(ctx *Context) (err error) {
	sp := rt.beginSpan("recovery", ctx.id, ctx.curSpan)
	replayed := 0
	defer func() {
		if err != nil {
			ctx.needsRecovery.Store(true)
		}
		sp.end(-1, fmt.Sprintf("%d kernels replayed", replayed), err)
	}()
	v := ctx.vgpu.Load()
	if v != nil && !v.dead.Load() && v.ds.dev.Failed() {
		rt.onDeviceFailure(v.ds) // a copy can meet the corpse before any launch has marked it
	}
	if v != nil && (v.dead.Load() || !v.ds.healthy.Load()) {
		ctx.vgpu.Store(nil)
	}
	ctx.needsRecovery.Store(false)
	if ctx.vgpu.Load() == nil {
		rt.mm.InvalidateResidency(ctx.space)
		ctx.unreplayed = len(ctx.replay)
	}
	rt.recoveries.Add(1)

	// Replay in log order, resolving into slices of the replay's own: the
	// interrupted launch still holds ctx.scratchPTEs. The next kernel is
	// found from the log's end, so the loop stays right when an attempt
	// trims the head (vacate) or a nested recovery finishes the job.
	var ptes []*memmgr.PTE
	var offs []uint64
	for tries := 0; ctx.unreplayed > 0; {
		call := ctx.replay[len(ctx.replay)-ctx.unreplayed]
		if ptes, offs, err = rt.resolveArgs(ctx, call.PtrArgs, ptes[:0], offs[:0]); err != nil {
			return err
		}
		var ran bool
		if ran, err = rt.attemptKernel(ctx, &call, ptes, offs, tries); err != nil {
			return err
		}
		tries++
		if ran {
			ctx.unreplayed--
			rt.replays.Add(1)
			replayed++
			tries = 0 // the next kernel counts its own attempts
		}
	}
	rt.mm.ClearLost(ctx.space)
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
