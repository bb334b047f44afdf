package core

import (
	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// This file implements lease-fenced session ownership (DESIGN.md §13).
// With a lease table configured, every mutating call verifies that this
// node still holds the session's lease at the epoch it remembered when
// it acquired it. Ownership moving — a peer's claim after expiry,
// migration commit, injected revocation — bumps the epoch, so a deposed
// owner's in-flight write is rejected with the typed api.ErrFenced no
// matter how late it arrives. The check piggybacks lease renewal: a healthy owner extends
// its lease on every served call and never comes close to expiry. The
// check goes through the session's own lease cell, cached on the
// context, so it shares no lock with any other session's calls.

// fence is the write fence: it rejects the call when this connection no
// longer owns its session. Callers hold ctx.mu.
func (rt *Runtime) fence(ctx *Context) error {
	if ctx.deposed.Load() {
		// The session migrated away on this very connection; no table
		// round trip can revive it.
		rt.fenceRejections.Add(1)
		if ctx.tm != nil {
			ctx.tm.AddFenceRejection()
		}
		rt.event(trace.KindFence, ctx.id, 0, -1, "deposed by migration")
		return api.ErrFenced
	}
	t := rt.cfg.Leases
	if t == nil {
		return nil
	}
	if h := rt.leaseHook; h != nil {
		if dec := h.Check(); dec.Err != nil {
			// Injected lease-expiry race: a phantom peer claimed and
			// abandoned the lease the instant before this check, so the
			// epoch comparison below fails deterministically.
			t.Revoke(ctx.id)
		}
	}
	renewed, err := ctx.lease.Check(rt.cfg.node(), ctx.leaseEpoch.Load())
	if err != nil {
		rt.fenceRejections.Add(1)
		if ctx.tm != nil {
			ctx.tm.AddFenceRejection()
		}
		rt.event(trace.KindFence, ctx.id, 0, -1, "lease lost")
		return api.ErrFenced
	}
	if renewed {
		rt.leaseRenewals.Add(ctx.lane, 1)
	}
	return nil
}

// leaseClaim takes session id's lease for this node and remembers the
// epoch and the lease's cell on the context. A session owned live by
// another node fails with ErrFenced. No-op without a lease table.
func (rt *Runtime) leaseClaim(ctx *Context, id int64) error {
	t := rt.cfg.Leases
	if t == nil {
		return nil
	}
	c, l, err := t.Claim(id, rt.cfg.node())
	if err != nil {
		return err
	}
	ctx.lease = c
	ctx.leaseEpoch.Store(l.Epoch)
	return nil
}

// leaseRelease drops the session's lease on orderly teardown. A deposed
// context does not release: ownership already moved with the session.
func (rt *Runtime) leaseRelease(ctx *Context) {
	if t := rt.cfg.Leases; t != nil && !ctx.deposed.Load() {
		t.Release(ctx.id, rt.cfg.node())
	}
}

// mutatingCall reports whether the call writes session state — the set
// that must pass the fence. Reads that can trigger a checkpoint commit
// (MemcpyDH empties the replay log durably) count as mutating.
func mutatingCall(call api.Call) bool {
	switch call.(type) {
	case *api.MallocCall, *api.FreeCall, *api.MemsetCall, *api.MemcpyHDCall,
		*api.MemcpyDHCall, *api.MemcpyDDCall, *api.LaunchCall,
		*api.RegisterNestedCall, *api.CheckpointCall, *api.MigrateCall:
		return true
	}
	return false
}
