package core

import (
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/failover"
	"gvrt/internal/memmgr"
	"gvrt/internal/obs"
	"gvrt/internal/sched"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// Context is the runtime-side representation of one application thread
// (§4.6's Context structure): its connection, registered binaries, the
// replay log since the last checkpoint, binding state and accounting.
//
// Locking: mu is the service lock — Handle holds it for the duration of
// each call, and other parties (inter-application swap, migration,
// device removal) acquire it before touching the context's page-table
// entries. Binding fields (vgpu, granted, waiting membership,
// needsRecovery) are guarded by the runtime mutex. The *Time fields are
// atomics because scheduling policies read them while the owner updates
// them.
type Context struct {
	id int64
	rt *Runtime

	mu sync.Mutex

	// Guarded by rt.mu (scheduler state: waiting-list membership and
	// the grant hand-off).
	appID     string
	granted   *vGPU
	inWaiting bool
	arrived   time.Duration

	// Lock-free binding state. vgpu is written by the owner (bind,
	// unbind, recovery) and by device failure/removal detaching the
	// context; every hot-path read (boundVGPU) is a plain atomic load,
	// which is what lets the per-call path skip the scheduler lock
	// entirely (DESIGN.md §11).
	vgpu          atomic.Pointer[vGPU]
	needsRecovery atomic.Bool
	exited        atomic.Bool

	// Owner state (under mu).
	binaries   api.Binaries
	replay     []api.LaunchCall
	replayRefs map[api.DevPtr]bool
	// unreplayed counts the log's trailing kernels the device state does
	// not reflect yet: zero except while a recovery is replaying.
	unreplayed int
	// tenant is the announced tenant membership (SetTenantCall);
	// tenantCharged is how many bytes this context currently holds
	// against the tenant's byte quota (tenant.go).
	tenant        string
	tenantCharged uint64
	// tm is the tenant's attribution bundle, cached at admission so
	// hot-path attribution is a plain pointer read plus atomic adds —
	// no map lookup, no lock (every reader holds ctx.mu, like the
	// writer in joinTenant/leaveTenant). Nil until SetTenant.
	tm *obs.TenantMetrics
	// pinned marks contexts excluded from sharing and dynamic
	// scheduling because their kernels allocate device memory
	// dynamically (§1). Written by the owner, read by swap/migration
	// victim scans, hence atomic.
	pinned atomic.Bool
	// leaseEpoch is the session-lease epoch this node held when it
	// acquired ownership; the write fence compares it against the lease
	// on every mutating call (fence.go). Atomic because resume()
	// updates it under rt.mu while the fence reads it under ctx.mu.
	leaseEpoch atomic.Uint64
	// lease is the session's cell in the lease table, cached when the
	// lease is acquired (and re-bound by resume) so the fence locks only
	// this session's record. Set before the first call and by resume,
	// read by the fence: never by two calls at once. Nil until acquired,
	// which the fence treats as fenced.
	lease *failover.Cell
	// deposed marks a connection whose session migrated away: every
	// later mutating call is fenced locally, without a table round trip.
	deposed atomic.Bool
	// migrate is the in-progress inbound transfer when this connection
	// is serving a migration source (migrate.go, under mu).
	migrate *migrateImport
	// curSpan is the in-flight call's root span ID; phase children
	// (queue-wait, bind, swap-in, launch, recovery) parent to it. Only
	// Handle reads or writes it, under mu.
	curSpan trace.SpanID
	// keptPtrs, keptScalars and keptReadOnly hold the replay log's
	// copies of its launches' argument slices (launch.go, under mu).
	keptPtrs     argArena[api.DevPtr]
	keptScalars  argArena[uint64]
	keptReadOnly argArena[bool]
	// Launch-path scratch (under mu), reused call to call so the hot
	// path stays allocation-free; the first launches use the arrays
	// behind them. Nothing downstream retains these: the replay log and
	// journal record their own copy of the call.
	scratchPTEs []*memmgr.PTE
	scratchOffs []uint64
	scratchArgs []api.DevPtr
	scratchBuf  struct {
		ptes [4]*memmgr.PTE
		offs [4]uint64
		args [4]api.DevPtr
	}
	// scratchVictims is intraSwap's table snapshot; parked cleared.
	scratchVictims []*memmgr.PTE
	// space is the context's page table in the memory manager, read
	// and written through it under mu (or a victim's TryLock) with no
	// shard lock; its Usage is read under no lock. newContext and resume
	// set it, each where it sets the lane.
	space *memmgr.Space

	// lane is the runtime lane this context's instruments are written on;
	// laneHeld (under mu) says it still counts toward rt.laneUse.
	lane     int
	laneHeld bool

	gpuTimeNS    atomic.Int64
	nextKernelNS atomic.Int64
	lastActiveNS atomic.Int64
}

func (c *Context) gpuTime() time.Duration    { return time.Duration(c.gpuTimeNS.Load()) }
func (c *Context) nextKernel() time.Duration { return time.Duration(c.nextKernelNS.Load()) }

// waiterInfo builds the policy-visible view of the context. Callers
// hold rt.mu.
func (c *Context) waiterInfo() sched.Waiter {
	return sched.Waiter{
		CtxID:           c.id,
		Arrived:         c.arrived,
		NextKernelTime:  c.nextKernel(),
		ConsumedGPUTime: c.gpuTime(),
		MemDemand:       c.space.Usage(),
	}
}

// newContext registers a fresh context with the runtime. The context is
// published in rt.ctxs only once its Space is set, so whoever finds it
// there finds the Space too. SetLane takes a memmgr shard lock, which is
// never taken under rt.mu, so the ID and lane come from atomics before
// the one rt.mu hold; two admissions racing may pick the same lane,
// which costs balance, not correctness.
func (rt *Runtime) newContext() *Context {
	ctx := &Context{
		id:         rt.nextCtx.Add(1),
		rt:         rt,
		replayRefs: make(map[api.DevPtr]bool),
		laneHeld:   true,
	}
	for i := range rt.laneUse {
		if rt.laneUse[i].Load() < rt.laneUse[ctx.lane].Load() {
			ctx.lane = i
		}
	}
	rt.laneUse[ctx.lane].Add(1)
	b := &ctx.scratchBuf
	ctx.scratchPTEs, ctx.scratchOffs, ctx.scratchArgs = b.ptes[:0], b.offs[:0], b.args[:0]
	ctx.space = rt.mm.SetLane(ctx.id, ctx.lane)
	rt.mu.Lock()
	rt.ctxs[ctx.id] = ctx
	rt.mu.Unlock()
	if err := rt.leaseClaim(ctx, ctx.id); err != nil {
		// Another node owns this ID live — a session-base misconfiguration.
		// The context stays registered but every mutating call will be
		// fenced (epoch 0 never matches a table entry).
		rt.eventf(trace.KindNote, ctx.id, -1, "lease acquisition failed: %v", err)
	}
	if j := rt.journal; j != nil {
		j.ContextCreated(ctx.id)
	}
	rt.event(trace.KindConnect, ctx.id, 0, -1, "")
	return ctx
}

// Serve runs the dispatcher for one connection until the client exits
// or the connection drops. It is the per-connection body of the paper's
// multithreaded dispatcher (§4.3): call Serve on its own goroutine per
// accepted connection. The goroutine owns the session — it creates the
// context and tears it down — while each call is served by the
// context's Handle, on whichever goroutine transport.Serve runs it.
func (rt *Runtime) Serve(sc transport.ServerConn) {
	ctx := rt.newContext()
	defer rt.teardown(ctx)
	if err := transport.Serve(sc, ctx); err != nil {
		// A call panicked on a stream: only this connection is closed.
		rt.eventf(trace.KindNote, ctx.id, -1, "connection closed: %v", err)
	}
}

// Handle serves one call of the context's application thread and
// reports whether the connection ends after the reply (an exit). Calls
// of one context never overlap: the connection carries one at a time.
func (ctx *Context) Handle(call api.Call) (api.Reply, bool) {
	rt := ctx.rt
	// A forwarding hop (offload proxy) wraps calls with its span ID so
	// this node's call spans parent across the wire; unwrap before
	// dispatch so handlers see the plain call.
	var remoteParent trace.SpanID
	if w, ok := call.(api.WithSpan); ok {
		call, remoteParent = w.Call, trace.SpanID(w.Parent)
	}
	call = api.Lift(call)
	served := rt.clock.Now()
	// The span's name is built only for a recorder to keep: it is an
	// allocation, and this is every call of every session.
	var sp *span
	if rt.cfg.Trace != nil {
		sp = rt.beginSpan("call."+call.CallName(), ctx.id, remoteParent)
	}
	// Framework overhead: interception, queuing, scheduling (§5: "all
	// the overheads introduced by our framework").
	rt.clock.Sleep(rt.cfg.overhead())
	if h := rt.dispatchHook; h != nil {
		// Injected scheduler stall: the call sits in the dispatcher for
		// extra model time before being served.
		if dec := h.Check(); dec.Delay > 0 {
			rt.clock.Sleep(dec.Delay)
		}
	}
	kind := api.KindOf(call)
	reply, end := func() (api.Reply, time.Duration) {
		// The service lock is released via defer so that even a panic
		// escaping a handler cannot leave the context locked and
		// deadlock teardown.
		ctx.mu.Lock()
		defer ctx.mu.Unlock()
		ctx.curSpan = sp.id()
		defer func() { ctx.curSpan = 0 }()
		r := rt.handle(ctx, call)
		// One end reading: last-active is the call's end, not start (§4.5).
		end := rt.clock.Now()
		ctx.lastActiveNS.Store(int64(end))
		if ctx.tm != nil {
			ctx.tm.AddCallOn(ctx.lane, r.Code != api.Success)
			if kind == api.KindLaunch {
				ctx.tm.Launch.ObserveLane(ctx.lane, int64(end-served))
			}
		}
		return r, end
	}()
	sp.end(-1, "", reply.Code.Err())
	rt.timings.ObserveCall(int(kind), call.CallName(), ctx.lane, int64(end-served))
	return reply, kind == api.KindExit
}

// releaseLane gives the context's lane back once; caller holds ctx.mu.
func (rt *Runtime) releaseLane(ctx *Context) {
	if ctx.laneHeld {
		ctx.laneHeld = false
		rt.laneUse[ctx.lane].Add(-1)
	}
}

// teardown releases everything a finished or disconnected context holds.
func (rt *Runtime) teardown(ctx *Context) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	var ops memmgr.DeviceOps
	ctx.exited.Store(true)
	v := ctx.vgpu.Load()
	if v != nil {
		ops = v.cuctx
	}
	rt.mm.ReleaseContext(ctx.id, ops)
	rt.releaseLane(ctx)
	// One rt.mu hold; no grant can race it, as a parked waiter holds its
	// own ctx.mu.
	rt.mu.Lock()
	if ctx.inWaiting {
		rt.dropWaiterLocked(ctx)
	}
	if v != nil {
		ctx.vgpu.Store(nil)
		rt.releaseVGPULocked(v)
	}
	delete(rt.ctxs, ctx.id)
	rt.mu.Unlock()
	if mi := ctx.migrate; mi != nil && mi.spool != nil {
		// Keep the spool on disk: the pending record makes the dropped
		// transfer resumable (same epoch) or cleanly aborted at boot.
		mi.spool.Close()
		ctx.migrate = nil
	}
	rt.leaveTenant(ctx)
	rt.leaseRelease(ctx)
	rt.event(trace.KindExit, ctx.id, 0, -1, "")
}

// handle services one call; the caller holds ctx.mu.
func (rt *Runtime) handle(ctx *Context, call api.Call) api.Reply {
	// The write fence (DESIGN.md §13): a mutating call on a session this
	// node no longer owns is rejected before it can touch any state.
	if mutatingCall(call) {
		if err := rt.fence(ctx); err != nil {
			return api.Reply{Code: api.Code(err)}
		}
	}
	switch c := call.(type) {
	case *api.RegisterFatBinaryCall:
		// Registration functions are issued ahead of binding (§4.3);
		// the binary reaches the bound vGPU's CUDA context at bind
		// time, or immediately if already bound. Kernel attributes the
		// toolchain did not set are derived from the shipped PTX (§1).
		// The call is the sender's: the registry keeps a copy.
		fb := api.AnnotateFromPTX(c.Binary)
		fb.Kernels = slices.Clone(fb.Kernels)
		ctx.binaries.Register(fb)
		if v := rt.boundVGPU(ctx); v != nil {
			if err := v.cuctx.RegisterFatBinary(fb); err != nil {
				return api.Reply{Code: api.Code(err)}
			}
		}
		return api.Reply{}

	case *api.MallocCall:
		kind := memmgr.KindLinear
		switch c.Kind {
		case api.AllocPitched:
			kind = memmgr.KindPitched
		case api.AllocArray:
			kind = memmgr.KindArray
		}
		// Tenant byte quota (tenant.go): reserve before allocating,
		// refund if the allocation fails.
		if code := rt.tenantCharge(ctx, c.Size); code != api.Success {
			return api.Reply{Code: code}
		}
		ptr, err := rt.mm.Malloc(ctx.id, c.Size, kind)
		if err != nil {
			rt.tenantUncharge(ctx, c.Size)
		}
		return api.Reply{Code: api.Code(err), Ptr: ptr}

	case *api.FreeCall:
		pte, _, err := rt.resolveSettled(ctx, c.Ptr, true)
		if err != nil {
			return api.Reply{Code: api.Code(err)}
		}
		err = rt.deviceOp(ctx, func() error {
			return rt.mm.Free(pte, rt.boundOps(ctx))
		})
		if err == nil {
			rt.tenantUncharge(ctx, pte.Size)
		}
		return api.Reply{Code: api.Code(err)}

	case *api.MemsetCall:
		pte, off, err := rt.resolveSettled(ctx, c.Dst, false)
		if err != nil {
			return api.Reply{Code: api.Code(err)}
		}
		err = rt.deviceOp(ctx, func() error {
			return rt.mm.Memset(pte, off, c.Value, c.Size, rt.boundOps(ctx))
		})
		return api.Reply{Code: api.Code(err)}

	case *api.MemcpyHDCall:
		pte, off, err := rt.resolveSettled(ctx, c.Dst, false)
		if err != nil {
			return api.Reply{Code: api.Code(err)}
		}
		err = rt.deviceOp(ctx, func() error {
			return rt.mm.CopyHD(pte, off, c.Data, c.Size, rt.boundOps(ctx))
		})
		return api.Reply{Code: api.Code(err)}

	case *api.MemcpyDHCall:
		pte, off, err := rt.resolveSettled(ctx, c.Src, false)
		if err != nil {
			return api.Reply{Code: api.Code(err)}
		}
		var data []byte
		err = rt.deviceOp(ctx, func() error {
			var e error
			data, e = rt.mm.CopyDH(pte, off, c.Size, rt.boundOps(ctx))
			return e
		})
		return api.Reply{Code: api.Code(err), Data: data}

	case *api.MemcpyDDCall:
		return api.Reply{Code: api.Code(rt.memcpyDD(ctx, c))}

	case *api.LaunchCall:
		return api.Reply{Code: api.Code(rt.launch(ctx, c))}

	case *api.SetDeviceCall:
		// Ignored: device procurement is abstracted away (§4.3).
		return api.Reply{}

	case *api.GetDeviceCountCall:
		// Overridden: applications see virtual, not physical, GPUs.
		return api.Reply{Count: rt.VGPUCount()}

	case *api.SynchronizeCall:
		if v := rt.boundVGPU(ctx); v != nil {
			return api.Reply{Code: api.Code(rt.deviceOp(ctx, func() error {
				if v := rt.boundVGPU(ctx); v != nil {
					return v.cuctx.Synchronize()
				}
				return nil
			}))}
		}
		return api.Reply{}

	case *api.SetAppIDCall:
		// CUDA 4.0 compatibility (§4.8): remember which application
		// this thread belongs to, so sibling threads — which may share
		// data on the GPU — are bound to the same physical device.
		rt.mu.Lock()
		ctx.appID = c.AppID
		rt.mu.Unlock()
		return api.Reply{}

	case *api.SetTenantCall:
		// Multi-tenant quota surface (tenant.go): enrol this thread in
		// the tenant, counting it against the tenant's session cap and
		// charging its existing allocations against the byte cap.
		return api.Reply{Code: rt.joinTenant(ctx, c.Tenant)}

	case *api.RegisterNestedCall:
		parent, _, err := rt.mm.ResolveIn(ctx.space, c.Parent, true)
		if err != nil {
			return api.Reply{Code: api.Code(err)}
		}
		return api.Reply{Code: api.Code(rt.mm.RegisterNested(parent, c.Members, c.Offsets))}

	case *api.StatsCall:
		data, err := json.Marshal(rt.Metrics())
		if err != nil {
			return api.Reply{Code: api.ErrInvalidValue}
		}
		return api.Reply{Data: data}

	case *api.GetSessionCall:
		return api.Reply{ID: ctx.id}

	case *api.ResumeCall:
		return api.Reply{Code: rt.resume(ctx, c.ID)}

	case *api.CheckpointCall:
		return api.Reply{Code: api.Code(rt.checkpoint(ctx))}

	case *api.MigrateCall:
		return api.Reply{Code: api.Code(rt.migrateSession(ctx, c.Target))}

	case *api.MigrateFrameCall:
		return rt.handleMigrateFrame(ctx, c.Frame)

	case *api.AdoptCall:
		n, err := rt.AdoptJournalDir(c.Dir)
		return api.Reply{Code: api.Code(err), Count: n}

	case *api.ExitCall:
		rt.releaseLane(ctx) // the next session may come before teardown
		return api.Reply{}

	default:
		return api.Reply{Code: api.ErrInvalidValue}
	}
}

// memcpyDD routes a device-to-device copy through the swap area so it
// works across residency states.
func (rt *Runtime) memcpyDD(ctx *Context, c *api.MemcpyDDCall) error {
	src, soff, err := rt.resolveSettled(ctx, c.Src, false)
	if err != nil {
		return err
	}
	dst, doff, err := rt.resolveSettled(ctx, c.Dst, false)
	if err != nil {
		return err
	}
	var data []byte
	if err := rt.deviceOp(ctx, func() error {
		var e error
		data, e = rt.mm.CopyDH(src, soff, c.Size, rt.boundOps(ctx))
		return e
	}); err != nil {
		return err
	}
	return rt.deviceOp(ctx, func() error {
		return rt.mm.CopyHD(dst, doff, data, c.Size, rt.boundOps(ctx))
	})
}

// resolveSettled is the door for calls that touch an entry's bytes from
// the host (free, memset and the three copies): memmgr refuses a
// pointer that is not ctx's own live allocation — its base, where base
// is set — before anything else looks at it (§4.5), and an entry some
// logged kernel references is checkpointed first, so the log empties
// (§4.6). Without that a host write or a free would corrupt or strand a
// later replay; a read would serve pre-kernel swap data on a session
// whose device state is gone, and would put post-kernel bytes into the
// swap area under a log that re-applies the kernel to its own output.
func (rt *Runtime) resolveSettled(ctx *Context, ptr api.DevPtr, base bool) (*memmgr.PTE, uint64, error) {
	pte, off, err := rt.mm.ResolveIn(ctx.space, ptr, base)
	if err == nil && ctx.replayRefs[pte.Virtual] {
		err = rt.checkpoint(ctx)
	}
	return pte, off, err
}

// boundVGPU returns the context's vGPU. A lock-free atomic load: this
// sits on every device-touching call, several times per launch.
func (rt *Runtime) boundVGPU(ctx *Context) *vGPU {
	return ctx.vgpu.Load()
}

// boundOps returns the context's device operations, or nil when
// unbound (memory-manager calls then defer everything to swap).
func (rt *Runtime) boundOps(ctx *Context) memmgr.DeviceOps {
	if v := rt.boundVGPU(ctx); v != nil {
		return v.cuctx
	}
	return nil
}

// checkpoint flushes the context's dirty entries to swap and clears the
// replay log (§4.6): after it, the page table plus swap area fully
// capture the device state. With a journal attached, the flushed state
// is also recorded as one atomic image record.
func (rt *Runtime) checkpoint(ctx *Context) (err error) {
	sp := rt.beginSpan("checkpoint", ctx.id, ctx.curSpan)
	defer func() { sp.endIfTimed(-1, "", err) }()
	if ctx.needsRecovery.Load() && len(ctx.replay) > 0 {
		// The device state the log describes is gone (device failure, or
		// a session resumed after a daemon restart): regenerate it by
		// replay before flushing — clearing the log instead would
		// silently discard committed kernels.
		if err := rt.recover(ctx); err != nil {
			return err
		}
	}
	if v := rt.boundVGPU(ctx); v != nil {
		err := rt.deviceOp(ctx, func() error {
			if v := rt.boundVGPU(ctx); v != nil {
				flushed, e := rt.mm.CheckpointIn(ctx.space, v.cuctx)
				if e == nil && ctx.tm != nil {
					ctx.tm.AddCheckpointBytes(ctx.lane, flushed)
				}
				return e
			}
			return nil
		})
		if err != nil {
			return err
		}
		rt.event(trace.KindCheckpoint, ctx.id, 0, v.ds.index, "")
	}
	ctx.trimReplay(len(ctx.replay))
	return rt.journalSnapshot(ctx)
}

// trimReplay drops the log's first k kernels — the ones the swap image
// has just come to reflect — and rebuilds replayRefs from what is left.
func (ctx *Context) trimReplay(k int) {
	old := ctx.replay
	ctx.replay = ctx.replay[:0]
	clear(ctx.replayRefs)
	for _, call := range old[k:] { // appends behind the read position
		ctx.recordReplay(call)
	}
	clear(old[len(ctx.replay):]) // the dropped kernels pin no arena
}

// deviceOp runs a device-touching operation with transparent failure
// recovery: when the bound device dies mid-operation, the context is
// recovered onto another device (§4.6) and the operation retried.
func (rt *Runtime) deviceOp(ctx *Context, f func() error) error {
	for attempt := 0; ; attempt++ {
		err := f()
		if !errors.Is(err, api.ErrDeviceUnavailable) {
			return err
		}
		if attempt > 8 {
			return err
		}
		if rerr := rt.recover(ctx); rerr != nil {
			return rerr
		}
	}
}
