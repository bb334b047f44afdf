package core

import (
	"slices"

	"gvrt/internal/api"
	"gvrt/internal/gpu"
	"gvrt/internal/sched"
	"gvrt/internal/trace"
)

// This file implements dynamic application→GPU binding (§4.3/§4.4):
// delayed binding at first kernel launch, the waiting-contexts list,
// vGPU release and hand-off, and load balancing through migration
// (§5.3.4).

// bind attaches the context to a free virtual GPU, blocking on the
// waiting list when none is available. The scheduling policy chooses
// both the device (when several have a free vGPU) and, on release, the
// next waiter. It returns the vGPU it bound (see ensureBound).
func (rt *Runtime) bind(ctx *Context) (*vGPU, error) {
	sp := rt.beginSpan("bind", ctx.id, ctx.curSpan)
	start := rt.clock.Now()
	v, err := rt.bindWait(ctx)
	rt.timings.BindWait.ObserveLane(ctx.lane, int64(rt.clock.Now()-start))
	dev := -1
	if err == nil {
		dev = v.ds.index
	}
	sp.endIfTimed(dev, "", err)
	return v, err
}

// bindWait is bind's blocking body.
func (rt *Runtime) bindWait(ctx *Context) (*vGPU, error) {
	rt.mu.Lock()
	for {
		if rt.closed {
			rt.mu.Unlock()
			return nil, api.ErrNoDevice
		}
		if v := rt.pickFreeVGPULocked(ctx); v != nil {
			// Claim under the device shard's lock: a concurrent device
			// failure (which runs without rt.mu) may have killed the
			// slot between pick and claim — then re-pick.
			if !v.ds.tryClaim(v, ctx) {
				continue
			}
			ctx.vgpu.Store(v)
			rt.mu.Unlock()
			return v, rt.onBind(ctx, v)
		}
		if !rt.anyHealthy() {
			rt.mu.Unlock()
			return nil, api.ErrNoDevice
		}
		// Park on the waiting-contexts list until a release grants us a
		// vGPU (§4.3: "application threads are enqueued in the list of
		// waiting contexts for later scheduling").
		ctx.inWaiting = true
		ctx.granted = nil
		ctx.arrived = rt.clock.Now()
		qsp := rt.beginSpan("queue-wait", ctx.id, ctx.curSpan)
		rt.waiting = append(rt.waiting, ctx)
		for ctx.granted == nil && !rt.closed {
			rt.cond.Wait()
		}
		waited := rt.clock.Now() - ctx.arrived
		rt.timings.QueueWait.ObserveLane(ctx.lane, int64(waited))
		if ctx.tm != nil {
			// Safe: the dispatcher holds ctx.mu for the whole call, and
			// tm only changes under ctx.mu. AddQueueWait is atomic adds.
			ctx.tm.AddQueueWait(int64(waited))
		}
		qsp.end(-1, "", nil)
		v := ctx.granted
		ctx.granted = nil
		if rt.closed {
			rt.mu.Unlock()
			if v != nil {
				v.ds.clearBound(v)
			}
			return nil, api.ErrNoDevice
		}
		ctx.vgpu.Store(v)
		rt.mu.Unlock()
		return v, rt.onBind(ctx, v)
	}
}

// onBind completes a binding outside rt.mu: the application's fat
// binaries become the vGPU's CUDA context's binaries, replacing those
// of the application bound before (the dispatcher issues registration
// functions before any kernel work, §4.3).
func (rt *Runtime) onBind(ctx *Context, v *vGPU) error {
	rt.binds.Add(1)
	rt.event(trace.KindBind, ctx.id, 0, v.ds.index, v.name)
	return v.cuctx.SetFatBinaries(ctx.binaries)
}

// anyHealthy reports whether any device can still serve.
func (rt *Runtime) anyHealthy() bool {
	for _, ds := range rt.deviceList() {
		if ds.healthy.Load() {
			return true
		}
	}
	return false
}

// siblingDeviceLocked returns the device a bound thread of the same
// application occupies, if any (§4.8: threads of one application share
// data and must land on one device). Caller holds rt.mu.
func (rt *Runtime) siblingDeviceLocked(ctx *Context) *deviceState {
	if ctx.appID == "" {
		return nil
	}
	for _, other := range rt.ctxs {
		if other == ctx || other.appID != ctx.appID {
			continue
		}
		if v := other.vgpu.Load(); v != nil {
			return v.ds
		}
	}
	return nil
}

// pickFreeVGPULocked asks the policy to choose among devices that have
// a free vGPU. A context whose application already has a bound sibling
// thread is constrained to the sibling's device (§4.8).
func (rt *Runtime) pickFreeVGPULocked(ctx *Context) *vGPU {
	if sib := rt.siblingDeviceLocked(ctx); sib != nil {
		if sib.healthy.Load() {
			return sib.freeVGPU()
		}
		return nil
	}
	loads, states := rt.pickLoads[:0], rt.pickStates[:0]
	for _, ds := range rt.devs {
		if !ds.healthy.Load() || ds.freeVGPU() == nil {
			continue
		}
		active := ds.activeVGPUs()
		loads = append(loads, sched.DeviceLoad{
			Index:        ds.index,
			Speed:        ds.dev.Spec().Speed,
			FreeVGPUs:    len(ds.slots()) - active,
			ActiveVGPUs:  active,
			MemAvailable: ds.dev.Available(),
		})
		states = append(states, ds)
	}
	rt.pickLoads, rt.pickStates = loads, states
	if len(loads) == 0 {
		return nil
	}
	i := rt.policy.PickDevice(ctx.waiterInfo(), loads)
	if i < 0 || i >= len(states) {
		return nil
	}
	return states[i].freeVGPU()
}

// dropWaiterLocked removes a context from the waiting list.
func (rt *Runtime) dropWaiterLocked(ctx *Context) {
	for i, w := range rt.waiting {
		if w == ctx {
			rt.waiting = slices.Delete(rt.waiting, i, i+1) // clears the vacated tail slot
			break
		}
	}
	ctx.inWaiting = false
}

// releaseVGPULocked frees a vGPU and hands it to the policy-chosen
// waiter; with nobody waiting and migration enabled, it tries to
// migrate a job from a slower device instead (§5.3.4: "the dispatcher
// keeps track of fast GPUs becoming idle, and, in the absence of
// pending jobs, it migrates running jobs from slow to fast GPUs").
func (rt *Runtime) releaseVGPULocked(v *vGPU) {
	v.ds.clearBound(v)
	if v.dead.Load() || !v.ds.healthy.Load() {
		return
	}
	// Waiters whose application has a bound sibling elsewhere must not
	// take this slot (§4.8); filter them before asking the policy.
	var eligible []int
	for i, w := range rt.waiting {
		if sib := rt.siblingDeviceLocked(w); sib != nil && sib != v.ds {
			continue
		}
		eligible = append(eligible, i)
	}
	if len(eligible) > 0 {
		infos := make([]sched.Waiter, len(eligible))
		for k, i := range eligible {
			infos[k] = rt.waiting[i].waiterInfo()
		}
		k := rt.policy.PickWaiter(infos)
		if k < 0 || k >= len(eligible) {
			k = 0
		}
		i := eligible[k]
		w := rt.waiting[i]
		// Re-claim under the shard lock: a device failure may have
		// killed the slot since clearBound; then the waiter stays
		// parked and recovery/re-admission will re-offer a slot.
		if !v.ds.tryClaim(v, w) {
			return
		}
		rt.waiting = slices.Delete(rt.waiting, i, i+1)
		w.inWaiting = false
		w.granted = v
		rt.cond.Broadcast()
		return
	}
	if rt.cfg.EnableMigration {
		rt.tryMigrateLocked(v, 0)
	}
}

// tryMigrateLocked attempts to move a context bound to a slower device
// onto the freed vGPU v. The victim must be idle (its service lock
// acquired without blocking — i.e. it is in a CPU phase) and not
// pinned. Called with rt.mu held; temporarily releases it for the swap.
func (rt *Runtime) tryMigrateLocked(v *vGPU, depth int) {
	if depth > 4 {
		return
	}
	speed := v.ds.dev.Spec().Speed
	var victim *Context
	var oldV *vGPU
	// Prefer the longest-idle context on the slowest device; only
	// contexts genuinely in a CPU phase are eligible.
	now := int64(rt.clock.Now())
	minIdle := int64(rt.cfg.minVictimIdle())
	bestIdle := int64(-1)
	var locked *Context
	for _, ds := range rt.devs {
		if !ds.healthy.Load() || ds.dev.Spec().Speed >= speed {
			continue
		}
		for _, cand := range ds.slots() {
			c := ds.boundTo(cand)
			// Threads of a multi-threaded application are not migrated
			// independently (§4.8: they may share device data).
			if c == nil || c.pinned.Load() || c.exited.Load() || c.appID != "" {
				continue
			}
			idle := c.lastActiveNS.Load()
			if now-idle < minIdle {
				continue
			}
			if bestIdle == -1 || idle < bestIdle {
				if c.mu.TryLock() {
					if locked != nil {
						locked.mu.Unlock()
					}
					locked = c
					victim = c
					oldV = cand
					bestIdle = idle
				}
			}
		}
	}
	if victim == nil {
		return
	}
	// Reserve the destination slot and commit intent before unlocking
	// the runtime for the slow swap work.
	claimed := v.ds.tryClaim(v, victim)
	if !claimed || victim.vgpu.Load() != oldV {
		// The destination died/got taken, or the victim moved on its
		// own since the scan; undo a successful claim and give up.
		if claimed {
			v.ds.clearBoundIf(v, victim)
		}
		victim.mu.Unlock()
		return
	}
	rt.mu.Unlock()

	// vacate checkpoints the victim off oldV and frees the slot, which
	// cascades to whoever waits for it or sits on a slower device still.
	err := rt.vacate(victim, oldV)
	if err == nil {
		err = v.cuctx.SetFatBinaries(victim.binaries)
	}

	rt.mu.Lock()
	if err != nil {
		// The victim carries on from wherever the failure left it: on
		// oldV, flagged for recovery if oldV died, or cleanly unbound.
		rt.eventf(trace.KindNote, victim.id, v.ds.index, "migration from %s to %s failed: %v", oldV.name, v.name, err)
		v.ds.clearBoundIf(v, victim)
		victim.mu.Unlock()
		return
	}
	victim.vgpu.Store(v)
	rt.migrations.Add(1)
	rt.eventf(trace.KindMigration, victim.id, v.ds.index, "%s -> %s", oldV.name, v.name)
	victim.mu.Unlock()
	_ = depth
}

// AddDevice hot-adds a physical GPU (dynamic upgrade, §2): vGPUs are
// created for it and waiting contexts — or, with migration enabled,
// jobs on slower devices — immediately benefit.
func (rt *Runtime) AddDevice(d *gpu.Device) (int, error) {
	idx := rt.crt.AddDevice(d)
	if err := rt.addDeviceState(idx); err != nil {
		return idx, err
	}
	rt.mu.Lock()
	ds := rt.devs[len(rt.devs)-1]
	for _, v := range ds.slots() {
		// A binder may have claimed the slot since addDeviceState
		// published the device; releasing it would take it from under
		// that context and book it twice.
		if ds.boundTo(v) == nil {
			rt.releaseVGPULocked(v)
		}
	}
	rt.mu.Unlock()
	return idx, nil
}

// RemoveDevice gracefully drains a device (dynamic downgrade, §2):
// bound contexts are checkpointed to swap and unbound, then the device
// is marked removed. Their next kernel launches re-bind elsewhere.
func (rt *Runtime) RemoveDevice(index int) error {
	ds := rt.deviceAt(index)
	if ds == nil {
		return api.ErrInvalidDevice
	}
	ds.healthy.Store(false) // no new binds
	for _, v := range ds.slots() {
		if c := ds.boundTo(v); c != nil {
			// Blocking acquisition is safe here: this is an administrative
			// goroutine holding no other locks.
			c.mu.Lock()
			if c.vgpu.Load() == v && rt.vacate(c, v) != nil {
				// What could not be flushed leaves with the device; replay
				// regenerates it, as after a failure (§4.6).
				c.needsRecovery.Store(true)
			}
			c.mu.Unlock()
		}
		v.dead.Store(true)
		ds.clearBound(v)
	}
	ds.dev.MarkRemoved()
	return nil
}
