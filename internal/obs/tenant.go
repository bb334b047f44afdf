// Package obs is the cluster-scoped observability layer: per-tenant
// attribution of runtime work, fleet-wide aggregation of the mergeable
// metric bundles every node already exposes, a burn-rate SLO engine
// over per-tenant histogram deltas, and a crash flight recorder.
//
// The attribution design rides the existing lock-free histogram
// discipline: hot paths (launch, swap) touch only atomic counters and
// lock-free Histogram.Observe on a *TenantMetrics pointer the runtime
// caches per context at admission time, so attribution adds no locks
// and no allocations to the launch or swap paths. The only lock in
// this file guards tenant-bundle creation, which happens once per
// tenant at admission — never per call.
package obs

import (
	"sync"
	"sync/atomic"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// TenantMetrics is the always-on attribution bundle for one tenant.
// All mutators are a single atomic add (or a lock-free histogram
// observe); the zero value is unusable — get bundles from a Registry.
type TenantMetrics struct {
	sessions        atomic.Int64
	calls           atomic.Int64
	errors          atomic.Int64
	launches        atomic.Int64
	gpuTimeNS       atomic.Int64
	queueWaitNS     atomic.Int64
	swapBytes       atomic.Int64
	swapOps         atomic.Int64
	checkpointBytes atomic.Int64
	migrationBytes  atomic.Int64
	fenceRejections atomic.Int64
	quotaRejects    atomic.Int64

	// Launch and QueueWait are the tenant-scoped latency histograms
	// (model-time ns). Exported so the runtime can Observe directly —
	// Histogram.Observe is lock-free.
	Launch    trace.Histogram
	QueueWait trace.Histogram
}

// SessionJoin / SessionLeave track attached contexts.
func (m *TenantMetrics) SessionJoin()  { m.sessions.Add(1) }
func (m *TenantMetrics) SessionLeave() { m.sessions.Add(-1) }

// AddCall counts one served call and whether it errored.
func (m *TenantMetrics) AddCall(failed bool) {
	m.calls.Add(1)
	if failed {
		m.errors.Add(1)
	}
}

// AddGPUTime attributes one successfully executed kernel launch and
// the modeled GPU execution time it consumed. Launch latency is
// observed separately into the Launch histogram (which also sees
// failed attempts, mirroring the runtime-wide histogram).
func (m *TenantMetrics) AddGPUTime(gpuNS int64) {
	m.launches.Add(1)
	m.gpuTimeNS.Add(gpuNS)
}

// AddQueueWait attributes time parked waiting for a free vGPU.
func (m *TenantMetrics) AddQueueWait(ns int64) {
	m.queueWaitNS.Add(ns)
	m.QueueWait.Observe(ns)
}

// AddFenceRejection counts a mutating call rejected with ErrFenced.
func (m *TenantMetrics) AddFenceRejection() { m.fenceRejections.Add(1) }

// AddQuotaReject counts an admission or allocation the tenant's quota
// refused — the per-tenant face of load shedding.
func (m *TenantMetrics) AddQuotaReject() { m.quotaRejects.Add(1) }

// AddMigrationBytes attributes wire bytes shipped by a cross-node
// migration of one of the tenant's contexts.
func (m *TenantMetrics) AddMigrationBytes(n int64) { m.migrationBytes.Add(n) }

// Usage snapshots the bundle into its wire form.
func (m *TenantMetrics) Usage() api.TenantUsage {
	return api.TenantUsage{
		Sessions:        m.sessions.Load(),
		Calls:           m.calls.Load(),
		Errors:          m.errors.Load(),
		Launches:        m.launches.Load(),
		GPUTimeNS:       m.gpuTimeNS.Load(),
		QueueWaitNS:     m.queueWaitNS.Load(),
		SwapBytes:       m.swapBytes.Load(),
		SwapOps:         m.swapOps.Load(),
		CheckpointBytes: m.checkpointBytes.Load(),
		MigrationBytes:  m.migrationBytes.Load(),
		FenceRejections: m.fenceRejections.Load(),
		QuotaRejects:    m.quotaRejects.Load(),
		Launch:          m.Launch.Snapshot(),
		QueueWait:       m.QueueWait.Snapshot(),
	}
}

// Registry maps tenant names to their attribution bundles and context
// IDs to the bundle of the tenant they joined. Bundle creation takes
// the registry lock (cold: once per tenant); every per-context lookup
// used from swap paths goes through a sync.Map, which is lock-free for
// the steady-state read case.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*TenantMetrics
	byCtx   sync.Map // int64 ctx ID -> *TenantMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*TenantMetrics)}
}

// Tenant returns the bundle for name, creating it on first use.
// Bundles are never removed: a tenant's usage outlives its sessions,
// like any monotonic counter.
func (r *Registry) Tenant(name string) *TenantMetrics {
	r.mu.RLock()
	m := r.tenants[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.tenants[name]; m == nil {
		m = &TenantMetrics{}
		r.tenants[name] = m
	}
	return m
}

// BindCtx routes future per-context attribution (from layers below
// core, via trace.Tracer.Attr) to m.
func (r *Registry) BindCtx(ctxID int64, m *TenantMetrics) {
	r.byCtx.Store(ctxID, m)
}

// UnbindCtx removes a context's attribution route.
func (r *Registry) UnbindCtx(ctxID int64) {
	r.byCtx.Delete(ctxID)
}

// ObserveCtx is the trace.Tracer Attr sink: it attributes a quantity
// reported by a lower layer (memmgr) to the tenant whose context owns
// it. Contexts that never joined a tenant are simply not attributed.
// Lock-free: one sync.Map load plus one atomic add.
func (r *Registry) ObserveCtx(ctxID int64, kind trace.AttrKind, v int64) {
	mv, ok := r.byCtx.Load(ctxID)
	if !ok {
		return
	}
	m := mv.(*TenantMetrics)
	switch kind {
	case trace.AttrSwapBytes:
		m.swapBytes.Add(v)
	case trace.AttrSwapOps:
		m.swapOps.Add(v)
	case trace.AttrCheckpointBytes:
		m.checkpointBytes.Add(v)
	}
}

// Snapshot renders every tenant's usage, keyed by name.
func (r *Registry) Snapshot() map[string]api.TenantUsage {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.tenants) == 0 {
		return nil
	}
	out := make(map[string]api.TenantUsage, len(r.tenants))
	for name, m := range r.tenants {
		out[name] = m.Usage()
	}
	return out
}
