package core

// Tenant quota enforcement: the runtime half of the control plane's
// multi-tenancy surface (internal/ctrlplane). A tenant's quota caps how
// many sessions may announce membership (checked on the admission path,
// at SetTenant) and how many aggregate bytes those sessions may hold
// allocated (checked on the memory-manager path, at every Malloc).
// Quotas arrive through ApplyQuota/RemoveQuota — the control plane's
// idempotent hooks — and enforcement state lives only here: the durable
// record of WHAT the quota is belongs to the control-plane store.

import (
	"gvrt/internal/api"
)

// tenantState is one tenant's live enforcement entry.
type tenantState struct {
	// Limits; zero means unlimited.
	maxSessions int
	hostBytes   uint64
	// Usage.
	sessions int
	bytes    uint64
}

// ApplyQuota installs or updates a tenant's limits, keeping any usage
// already accumulated. Idempotent — re-applying the same quota is a
// no-op — so the control plane can resume a crashed quota-set by
// re-running it.
func (rt *Runtime) ApplyQuota(tenant string, maxSessions int, hostBytes uint64) error {
	if tenant == "" {
		return api.ErrInvalidValue
	}
	rt.tenantMu.Lock()
	defer rt.tenantMu.Unlock()
	ts := rt.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		rt.tenants[tenant] = ts
	}
	ts.maxSessions = maxSessions
	ts.hostBytes = hostBytes
	return nil
}

// RemoveQuota lifts a tenant's limits. Sessions already announced stay
// members (their usage is simply no longer bounded). Idempotent.
func (rt *Runtime) RemoveQuota(tenant string) error {
	rt.tenantMu.Lock()
	defer rt.tenantMu.Unlock()
	if ts := rt.tenants[tenant]; ts != nil {
		// Keep the entry while members remain so their usage accounting
		// stays coherent; just lift the limits.
		if ts.sessions > 0 || ts.bytes > 0 {
			ts.maxSessions = 0
			ts.hostBytes = 0
		} else {
			delete(rt.tenants, tenant)
		}
	}
	return nil
}

// TenantUsage reports a tenant's live usage (sessions, bytes). Zeroes
// for an unknown tenant.
func (rt *Runtime) TenantUsage(tenant string) (sessions int, bytes uint64) {
	rt.tenantMu.Lock()
	defer rt.tenantMu.Unlock()
	if ts := rt.tenants[tenant]; ts != nil {
		return ts.sessions, ts.bytes
	}
	return 0, 0
}

// joinTenant enrols a context in a tenant (SetTenantCall). The caller
// holds ctx.mu. The session counts against the tenant's cap
// immediately, and the context's existing allocations charge against
// the byte cap — joining late does not dodge accounting.
func (rt *Runtime) joinTenant(ctx *Context, tenant string) api.Error {
	if tenant == "" {
		return api.ErrInvalidValue
	}
	if ctx.tenant == tenant {
		return api.Success
	}
	if ctx.tenant != "" {
		// Re-announcing under a different tenant moves the membership.
		rt.leaveTenant(ctx)
	}
	usage := rt.mm.UsageOf(ctx.id)
	rt.tenantMu.Lock()
	ts := rt.tenants[tenant]
	if ts == nil {
		// No quota installed: membership is free (recorded so a later
		// quota applies to it) with unlimited limits.
		ts = &tenantState{}
		rt.tenants[tenant] = ts
	}
	if ts.maxSessions > 0 && ts.sessions >= ts.maxSessions {
		rt.tenantMu.Unlock()
		rt.quotaRejects.Add(1)
		rt.obsTenants.Tenant(tenant).AddQuotaReject()
		return api.ErrQuotaExceeded
	}
	if ts.hostBytes > 0 && ts.bytes+usage > ts.hostBytes {
		rt.tenantMu.Unlock()
		rt.quotaRejects.Add(1)
		rt.obsTenants.Tenant(tenant).AddQuotaReject()
		return api.ErrQuotaExceeded
	}
	ts.sessions++
	ts.bytes += usage
	rt.tenantMu.Unlock()
	ctx.tenant = tenant
	ctx.tenantCharged = usage
	// Cache the tenant's attribution bundle on the context (we hold
	// ctx.mu) and route lower-layer accounting (memmgr swap/checkpoint
	// bytes) for this context to it. Everything the session does
	// from here on is attributed to the tenant.
	ctx.tm = rt.obsTenants.Tenant(tenant)
	ctx.tm.SessionJoin()
	rt.obsTenants.BindCtx(ctx.id, ctx.tm)
	return api.Success
}

// leaveTenant removes a context from its tenant, refunding its session
// slot and charged bytes. Caller holds ctx.mu (or is in teardown, where
// the dispatcher is gone).
func (rt *Runtime) leaveTenant(ctx *Context) {
	if ctx.tenant == "" {
		return
	}
	rt.tenantMu.Lock()
	if ts := rt.tenants[ctx.tenant]; ts != nil {
		ts.sessions--
		if ts.bytes >= ctx.tenantCharged {
			ts.bytes -= ctx.tenantCharged
		} else {
			ts.bytes = 0
		}
		if ts.sessions <= 0 && ts.bytes == 0 && ts.maxSessions == 0 && ts.hostBytes == 0 {
			delete(rt.tenants, ctx.tenant)
		}
	}
	rt.tenantMu.Unlock()
	ctx.tenant = ""
	ctx.tenantCharged = 0
	if ctx.tm != nil {
		ctx.tm.SessionLeave()
		rt.obsTenants.UnbindCtx(ctx.id)
		ctx.tm = nil
	}
}

// tenantCharge reserves size bytes against the context's tenant quota
// before an allocation. Caller holds ctx.mu.
func (rt *Runtime) tenantCharge(ctx *Context, size uint64) api.Error {
	if ctx.tenant == "" {
		return api.Success
	}
	rt.tenantMu.Lock()
	defer rt.tenantMu.Unlock()
	ts := rt.tenants[ctx.tenant]
	if ts == nil {
		return api.Success
	}
	// size is client-chosen: compare without forming ts.bytes+size.
	if ts.hostBytes > 0 && (size > ts.hostBytes || ts.bytes > ts.hostBytes-size) {
		rt.quotaRejects.Add(1)
		if ctx.tm != nil {
			ctx.tm.AddQuotaReject()
		}
		return api.ErrQuotaExceeded
	}
	ts.bytes += size
	ctx.tenantCharged += size
	return api.Success
}

// tenantUncharge refunds size bytes (a failed or freed allocation).
// Caller holds ctx.mu.
func (rt *Runtime) tenantUncharge(ctx *Context, size uint64) {
	if ctx.tenant == "" {
		return
	}
	if size > ctx.tenantCharged {
		size = ctx.tenantCharged
	}
	ctx.tenantCharged -= size
	rt.tenantMu.Lock()
	if ts := rt.tenants[ctx.tenant]; ts != nil {
		if ts.bytes >= size {
			ts.bytes -= size
		} else {
			ts.bytes = 0
		}
	}
	rt.tenantMu.Unlock()
}
