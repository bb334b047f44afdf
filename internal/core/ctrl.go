package core

// Control-plane hooks: the runtime surface internal/ctrlplane drives
// (its Hooks interface). Every method here is idempotent — the control
// plane re-runs interrupted operations from the top after a crash, so
// draining a drained device or re-applying an applied quota must be a
// no-op. Quota hooks live in tenant.go; this file holds device
// lifecycle and the graceful-shutdown drain.

import (
	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// DrainDevice evacuates and removes a device for the control plane:
// bound contexts are checkpointed to swap and unbound (RemoveDevice —
// the §2 dynamic downgrade), and their next launches re-bind to the
// remaining devices. Idempotent: draining an already-removed device
// succeeds as a no-op.
func (rt *Runtime) DrainDevice(index int) error {
	if ds := rt.deviceAt(index); ds != nil && ds.dev.Removed() {
		return nil // already drained (resume path)
	}
	return rt.RemoveDevice(index)
}

// ReadmitDevice returns a drained device to scheduling: the
// administrative removal is cleared and the device's vGPU workers are
// rebuilt exactly as health-monitor re-admission does. Idempotent:
// readmitting a serving device succeeds as a no-op.
func (rt *Runtime) ReadmitDevice(index int) error {
	ds := rt.deviceAt(index)
	if ds == nil {
		return api.ErrInvalidDevice
	}
	if ds.healthy.Load() && !ds.dev.Removed() {
		return nil // already serving (resume path)
	}
	ds.dev.ClearRemoved()
	ds.dev.Restore()
	rt.readmitDevice(ds)
	if !ds.healthy.Load() {
		return api.ErrDeviceUnavailable
	}
	return nil
}

// DeviceCount reports how many devices the runtime owns (including
// drained ones — membership, not health).
func (rt *Runtime) DeviceCount() int {
	return len(rt.deviceList())
}

// BeginDrain starts a graceful shutdown: new connections are refused
// (HandleConn sheds them) and every live session's failover lease is
// revoked so a peer node can claim ownership immediately instead of
// waiting out the TTL. In-flight sessions keep running; the caller
// closes the listener, flushes the journal, and exits when ready.
func (rt *Runtime) BeginDrain() {
	if rt.draining.Swap(true) {
		return // already draining
	}
	rt.event(trace.KindNote, 0, 0, -1, "drain: refusing new connections")
	t := rt.cfg.Leases
	if t == nil {
		return
	}
	rt.mu.Lock()
	ids := make([]int64, 0, len(rt.ctxs))
	for id := range rt.ctxs {
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	for _, id := range ids {
		t.Revoke(id)
	}
	if len(ids) > 0 {
		rt.eventf(trace.KindNote, 0, -1, "drain: revoked %d session leases", len(ids))
	}
}
