// Package core implements the gvrt node-level runtime of the paper's §4:
// connection manager, multithreaded dispatcher, virtual GPUs, and the
// orchestration of the memory manager that yields GPU sharing, dynamic
// application→GPU binding, inter-/intra-application swapping, load
// balancing through migration, fault tolerance and checkpoint-restart.
//
// One Runtime instance runs per node. Applications reach it through
// transport connections (one per application thread); every CUDA call
// arriving on a connection is served synchronously, exactly like the
// paper's interposed frontend → daemon RPC.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"

	"gvrt/internal/ckptlog"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/gpu"
	"gvrt/internal/memmgr"
	"gvrt/internal/obs"
	"gvrt/internal/sched"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// Default configuration values.
const (
	// DefaultVGPUsPerDevice is the sharing degree the paper settles on
	// (§5.3.2: "four vGPUs per device provide a good compromise").
	DefaultVGPUsPerDevice = 4
	// DefaultCallOverhead models the per-call cost of interception,
	// queuing and scheduling. It is a model constant, not a calibration:
	// in virtual time (a synctest bubble) Fig 5's overhead column reads
	// 0% at 8 vGPUs in every row, so the paper's ≤10% worst case does not
	// test it (ROADMAP item 12).
	DefaultCallOverhead = 100 * time.Microsecond
	// DefaultBindBackoff is the pause before a context that could not
	// obtain memory retries binding (§4.5: "the calling application
	// will unbind from the virtual-GPU and retry later").
	DefaultBindBackoff = 50 * time.Millisecond
	// DefaultMinVictimIdle is the idle time after which a context is
	// considered to be in a CPU phase for swap/migration eligibility.
	DefaultMinVictimIdle = 100 * time.Millisecond
	// DefaultHealthInterval is the pause between the health monitor's
	// probes of unhealthy devices for re-admission.
	DefaultHealthInterval = 250 * time.Millisecond
)

// Config tunes a Runtime. The zero value gives the paper's evaluation
// configuration: 4 vGPUs per device, FCFS scheduling, transfer deferral
// on, both swap flavours enabled, no migration, no offloading.
type Config struct {
	// VGPUsPerDevice is the number of virtual GPUs (concurrent
	// applications) per physical device; 0 means DefaultVGPUsPerDevice.
	VGPUsPerDevice int
	// Policy is the dispatcher's scheduling policy; nil means FCFS.
	Policy sched.Policy
	// WriteThrough disables transfer deferral (§4.5): host writes to
	// resident entries go straight to the device.
	WriteThrough bool
	// CallOverhead is the modeled per-call framework overhead; 0 means
	// DefaultCallOverhead, negative means none.
	CallOverhead time.Duration
	// DisableInterSwap turns off inter-application swapping (ablation).
	DisableInterSwap bool
	// EnableMigration turns on load balancing through dynamic binding
	// (§5.3.4): when a faster GPU's vGPU frees with nobody waiting, a
	// job bound to a slower GPU is migrated to it.
	EnableMigration bool
	// AutoCheckpoint, when positive, checkpoints a context after any
	// kernel call whose modeled duration is at least this long (§4.6:
	// automatic checkpoints after long-running kernels).
	AutoCheckpoint time.Duration
	// BindBackoff is the retry pause after a failed memory acquisition;
	// 0 means DefaultBindBackoff.
	BindBackoff time.Duration
	// MinVictimIdle is how long a context must have been idle before it
	// counts as "running a CPU phase" and may honour an
	// inter-application swap request or be migrated (§4.5: an
	// application between two back-to-back kernel calls is not in a CPU
	// phase and "may not" accept). 0 means DefaultMinVictimIdle;
	// negative means no minimum.
	MinVictimIdle time.Duration
	// PeerDial, when set together with OffloadThreshold, lets the node
	// offload incoming application threads to a peer node (§4.7).
	PeerDial func() (transport.Conn, error)
	// OffloadThreshold is the pending/waiting queue length above which
	// new connections are offloaded; 0 disables offloading.
	OffloadThreshold int
	// OnEvent, when set, receives every runtime event synchronously at
	// the transition that emits it, like Trace and Flight (gvrtd -v
	// prints each one).
	OnEvent func(trace.Event)
	// Trace, when set, records structured scheduling events (bindings,
	// swaps, migrations, failures, recoveries, offloads) into a bounded
	// ring for tests and operators.
	Trace *trace.Recorder
	// Flight, when set, is the node's black-box crash recorder: every
	// runtime event is also noted in its bounded ring, and fence
	// storms trigger an automatic dump. Events are state
	// transitions (binds and swaps included), never one per call.
	Flight *obs.FlightRecorder
	// Faults, when set, arms the deterministic fault plane: devices, the
	// memory manager's swap area and the dispatcher consult it at their
	// injection points. Nil (the default) leaves every hook nil, so the
	// hot path pays one nil check per site.
	Faults *faultinject.Plane
	// Leases, when set, arms lease-fenced session ownership (DESIGN.md
	// §13): every mutating call checks this node's (owner, epoch) pair
	// against the shared table and is rejected with ErrFenced once
	// ownership moved. Nil disables fencing (single-node operation).
	Leases *failover.Table
	// NodeName identifies this node in the lease table and migration
	// protocol; "" means "local".
	NodeName string
	// MigrateDir is where the migration target keeps pending-operation
	// records and chunk spools (normally the journal directory). ""
	// keeps them in memory: live-transfer resume still works, but a
	// target crash mid-import is not recorded on disk.
	MigrateDir string
	// SessionBase offsets locally-created context IDs. A failover
	// target sets it above the ID range its peers issue, so adopted
	// sessions can keep their original IDs without colliding with the
	// target's own connections.
	SessionBase int64
}

func (c *Config) node() string {
	if c.NodeName == "" {
		return "local"
	}
	return c.NodeName
}

func (c *Config) vgpus() int {
	if c.VGPUsPerDevice <= 0 {
		return DefaultVGPUsPerDevice
	}
	return c.VGPUsPerDevice
}

func (c *Config) overhead() time.Duration {
	switch {
	case c.CallOverhead == 0:
		return DefaultCallOverhead
	case c.CallOverhead < 0:
		return 0
	default:
		return c.CallOverhead
	}
}

func (c *Config) backoff() time.Duration {
	if c.BindBackoff <= 0 {
		return DefaultBindBackoff
	}
	return c.BindBackoff
}

func (c *Config) minVictimIdle() time.Duration {
	switch {
	case c.MinVictimIdle == 0:
		return DefaultMinVictimIdle
	case c.MinVictimIdle < 0:
		return 0
	default:
		return c.MinVictimIdle
	}
}

// vGPU is a virtual GPU: one sharing slot of a physical device, owning
// a persistent CUDA context created at startup (§4.4). bound is guarded
// by the owning device's shard mutex (deviceState.mu); dead is an
// atomic so the hot path can check slot liveness lock-free.
type vGPU struct {
	name  string
	ds    *deviceState
	cuctx *cudart.Context
	bound *Context
	dead  atomic.Bool
}

// deviceState is one per-device shard (DESIGN.md §11): it tracks a
// physical device, its vGPU slots, and their binding occupancy under
// its own mutex, so slot traffic on one device never contends with
// another's. healthy is atomic for lock-free reads on the hot path.
//
// Lock order: ctx.mu → rt.mu → ds.mu; a memmgr shard lock is a leaf
// taken under ctx.mu alone. A ds.mu holder never takes rt.mu or another
// device's ds.mu.
type deviceState struct {
	index   int
	dev     *gpu.Device
	healthy atomic.Bool
	// nslots is len(vgpus), written once before the shard is published.
	// Re-admission rebuilds vgpus but always at the configured count, so
	// hot paths (checkFits, projectedQueue) read this without ds.mu.
	nslots int

	mu    sync.Mutex
	vgpus []*vGPU
}

// slots snapshots the shard's vGPU slice (replaced wholesale on
// re-admission, never mutated in place).
func (ds *deviceState) slots() []*vGPU {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.vgpus
}

// freeVGPU returns an unbound live slot, nil when none. The returned
// slot must still be claimed under ds.mu (tryClaim) — another party
// may take it first.
func (ds *deviceState) freeVGPU() *vGPU {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.freeVGPUShardLocked()
}

func (ds *deviceState) freeVGPUShardLocked() *vGPU {
	for _, v := range ds.vgpus {
		if v.bound == nil && !v.dead.Load() {
			return v
		}
	}
	return nil
}

// tryClaim binds ctx to v if the slot is still free and live.
func (ds *deviceState) tryClaim(v *vGPU, ctx *Context) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if v.bound != nil || v.dead.Load() {
		return false
	}
	v.bound = ctx
	return true
}

// boundTo returns the context occupying the slot, nil when free.
func (ds *deviceState) boundTo(v *vGPU) *Context {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return v.bound
}

// clearBound unbinds the slot unconditionally.
func (ds *deviceState) clearBound(v *vGPU) {
	ds.mu.Lock()
	v.bound = nil
	ds.mu.Unlock()
}

// clearBoundIf unbinds the slot only while it is still bound to ctx —
// rollback paths use it so they cannot clobber a re-granted slot.
func (ds *deviceState) clearBoundIf(v *vGPU, ctx *Context) {
	ds.mu.Lock()
	if v.bound == ctx {
		v.bound = nil
	}
	ds.mu.Unlock()
}

func (ds *deviceState) activeVGPUs() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	n := 0
	for _, v := range ds.vgpus {
		if v.bound != nil {
			n++
		}
	}
	return n
}

// Metrics is the runtime's stats snapshot (Runtime.Metrics).
type Metrics = api.RuntimeStats

// Runtime is the gvrt node-level runtime daemon.
type Runtime struct {
	cfg    Config
	clock  *sim.Clock
	crt    *cudart.Runtime
	mm     *memmgr.Manager
	policy sched.Policy

	// gpuTimeNS totals modeled kernel execution time across all
	// contexts — the node figure per-tenant attribution is conserved
	// against. It and leaseRenewals are lane counters; their headers sit
	// among fields no call writes. laneUse is how many admitted contexts
	// hold each lane (DESIGN.md §11).
	gpuTimeNS     trace.Counter
	leaseRenewals trace.Counter
	laneUse       []atomic.Int32

	// observed is set when any event sink (Trace, Flight, OnEvent) is
	// armed; without one, event returns at its first check.
	observed bool

	// dispatchHook is the fault plane's scheduler-stall site; nil
	// without a plan.
	dispatchHook *faultinject.Hook
	// leaseHook / migXferHook / migImportHook are the failover plane's
	// injection sites: the lease-expiry race, the mid-transfer
	// partition, and the target crash during import.
	leaseHook     *faultinject.Hook
	migXferHook   *faultinject.Hook
	migImportHook *faultinject.Hook

	// journal, when attached, shadows the durable checkpoint state on
	// disk (see journal.go). Set once at boot, read without rt.mu.
	journal *ckptlog.Journal

	// mu is the narrow cross-device scheduler lock (DESIGN.md §11):
	// it guards the waiting list, grant hand-off, the context registry
	// and the device-list slice — the state that coordinates *across*
	// devices. Per-device slot state lives in each deviceState shard;
	// per-context memory state in the context's memmgr.Space.
	mu      sync.Mutex
	cond    *sync.Cond
	devs    []*deviceState
	waiting []*Context
	ctxs    map[int64]*Context
	// orphans holds the sessions installed here and not yet resumed
	// (adoptImage), each with the kernels committed after its last
	// checkpoint; a Resume turns them back into the context's replay log.
	orphans map[int64][]api.LaunchCall
	// claimed remembers sessions already resumed, so a second claimant
	// gets the typed ErrSessionClaimed instead of "no such session".
	claimed map[int64]bool
	// nextCtx is the last context ID issued. It is not under mu:
	// newContext issues IDs without it, and reserveID raises it past
	// every adopted ID.
	nextCtx       atomic.Int64
	closed        bool
	healthRunning bool
	// pickFreeVGPULocked's reusable load vector and its devices.
	pickLoads  []sched.DeviceLoad
	pickStates []*deviceState

	// devList is a copy-on-write snapshot of devs, refreshed under
	// rt.mu whenever the device list changes; hot-path readers
	// (checkFits, VGPUCount, Metrics, the monitors) load it without
	// taking the scheduler lock.
	devList atomic.Pointer[[]*deviceState]

	// timings holds the runtime's latency/size histograms. Always
	// live (Observe is lock-free and cheap), independent of cfg.Trace.
	timings trace.Timings

	binds          atomic.Int64
	interSwaps     atomic.Int64
	intraSwaps     atomic.Int64
	migrations     atomic.Int64
	recoveries     atomic.Int64
	replays        atomic.Int64
	deviceFailures atomic.Int64
	offloaded      atomic.Int64
	unbindRetries  atomic.Int64
	admitted       atomic.Int64
	readmissions   atomic.Int64
	sheds          atomic.Int64

	migStarted      atomic.Int64
	migCompleted    atomic.Int64
	migAborted      atomic.Int64
	fenceRejections atomic.Int64

	// Tenant quota enforcement (tenant.go): tenantMu guards the
	// registry; per-tenant usage counters live inside each entry.
	tenantMu     sync.Mutex
	tenants      map[string]*tenantState
	quotaRejects atomic.Int64

	// obsTenants attributes runtime work to tenants (internal/obs).
	// Hot paths reach it only through the *obs.TenantMetrics pointer
	// cached on each context at admission (ctx.tm, under ctx.mu), so
	// attribution adds atomic ops but no locks to launch/swap paths.
	obsTenants *obs.Registry

	// draining, once set, makes HandleConn refuse every new connection
	// (graceful shutdown: the daemon stops admitting, lets in-flight
	// sessions finish, then exits).
	draining atomic.Bool
}

// New builds a runtime over a CUDA runtime instance, creating the
// configured number of virtual GPUs per device up front (each one a
// persistent CUDA context, statically bound to its physical GPU via
// cudaSetDevice at startup, §4.4). It fails if any context cannot be
// created — a sign the sharing degree exceeds what the CUDA runtime
// supports.
func New(crt *cudart.Runtime, cfg Config) (*Runtime, error) {
	rt := &Runtime{
		cfg:        cfg,
		observed:   cfg.Trace != nil || cfg.Flight != nil || cfg.OnEvent != nil,
		clock:      crt.Clock(),
		crt:        crt,
		mm:         memmgr.New(!cfg.WriteThrough, 0),
		policy:     cfg.Policy,
		ctxs:       make(map[int64]*Context),
		orphans:    make(map[int64][]api.LaunchCall),
		claimed:    make(map[int64]bool),
		tenants:    make(map[string]*tenantState),
		obsTenants: obs.NewRegistry(),
		laneUse:    make([]atomic.Int32, trace.LaneCount()),
	}
	rt.gpuTimeNS, rt.leaseRenewals = trace.NewCounter(), trace.NewCounter()
	if rt.policy == nil {
		rt.policy = sched.FCFS{}
	}
	rt.mm.InstallFaults(cfg.Faults)
	rt.mm.SetTracer(&trace.Tracer{
		Rec:       cfg.Trace,
		Now:       rt.clock.Now,
		SwapDur:   &rt.timings.SwapDur,
		SwapBytes: &rt.timings.SwapBytes,
		H2D:       &rt.timings.H2D,
		D2H:       &rt.timings.D2H,
	})
	if cfg.Flight != nil {
		cfg.Flight.SetSources(rt.timings.Snapshot, rt.Metrics)
	}
	rt.dispatchHook = cfg.Faults.Hook(faultinject.PointDispatch, "")
	rt.leaseHook = cfg.Faults.Hook(faultinject.PointLeaseCheck, "")
	rt.migXferHook = cfg.Faults.Hook(faultinject.PointMigrateTransfer, "")
	rt.migImportHook = cfg.Faults.Hook(faultinject.PointMigrateImport, "")
	if cfg.SessionBase > 0 {
		rt.nextCtx.Store(cfg.SessionBase)
	}
	for _, rec := range failover.ResolvePending(cfg.MigrateDir) {
		// A pending record at boot is an import the crash interrupted —
		// it never committed, so aborting it is the clean outcome.
		rt.migAborted.Add(1)
		rt.eventf(trace.KindNote, rec.Session, -1, "aborted pending import (owner %s epoch %d)", rec.Owner, rec.Epoch)
	}
	rt.cond = sync.NewCond(&rt.mu)
	for i := 0; i < crt.DeviceCount(); i++ {
		if err := rt.addDeviceState(i); err != nil {
			rt.Close()
			return nil, err
		}
	}
	if cfg.EnableMigration {
		go rt.migrationMonitor()
	}
	return rt, nil
}

// migrationMonitor periodically looks for an idle vGPU on a fast device
// with nobody waiting and migrates a job from a slower device onto it
// (§5.3.4: "the dispatcher keeps track of fast GPUs becoming idle").
// Release events also trigger migration directly; the monitor catches
// victims that only became eligible (entered a CPU phase) later.
func (rt *Runtime) migrationMonitor() {
	const interval = 200 * time.Millisecond
	for {
		rt.clock.Pace(interval)
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		if len(rt.waiting) == 0 {
			var best *vGPU
			for _, ds := range rt.deviceList() {
				if !ds.healthy.Load() {
					continue
				}
				if v := ds.freeVGPU(); v != nil {
					if best == nil || v.ds.dev.Spec().Speed > best.ds.dev.Spec().Speed {
						best = v
					}
				}
			}
			if best != nil {
				rt.tryMigrateLocked(best, 0)
			}
		}
		rt.mu.Unlock()
	}
}

// addDeviceState creates the vGPUs for device index i.
func (rt *Runtime) addDeviceState(i int) error {
	ds := &deviceState{index: i, dev: rt.crt.Device(i)}
	ds.healthy.Store(true)
	// Arm the device's fault hooks here so hot-added devices (AddDevice
	// during a chaos run) are covered the same as boot-time ones.
	ds.dev.InstallFaults(rt.cfg.Faults)
	for k := 0; k < rt.cfg.vgpus(); k++ {
		cuctx, err := rt.crt.CreateContext(i)
		if err != nil {
			return fmt.Errorf("core: creating vGPU %d.%d: %w", i, k, err)
		}
		ds.vgpus = append(ds.vgpus, &vGPU{
			name:  fmt.Sprintf("vGPU%d.%d", i, k),
			ds:    ds,
			cuctx: cuctx,
		})
	}
	ds.nslots = len(ds.vgpus)
	rt.mu.Lock()
	rt.devs = append(rt.devs, ds)
	rt.refreshDeviceListLocked()
	rt.mu.Unlock()
	return nil
}

// refreshDeviceListLocked republishes the COW device-list snapshot.
// Caller holds rt.mu.
func (rt *Runtime) refreshDeviceListLocked() {
	snap := append([]*deviceState(nil), rt.devs...)
	rt.devList.Store(&snap)
}

// deviceList returns the current device-list snapshot without taking
// the scheduler lock.
func (rt *Runtime) deviceList() []*deviceState {
	p := rt.devList.Load()
	if p == nil {
		return nil
	}
	return *p
}

// deviceAt returns the shard of the device with the given ordinal, nil
// when the node has none.
func (rt *Runtime) deviceAt(index int) *deviceState {
	for _, ds := range rt.deviceList() {
		if ds.index == index {
			return ds
		}
	}
	return nil
}

// Clock returns the runtime's model clock.
func (rt *Runtime) Clock() *sim.Clock { return rt.clock }

// NodeName reports the name this runtime uses in the lease table and
// migration protocol ("local" when unconfigured).
func (rt *Runtime) NodeName() string { return rt.cfg.node() }

// Metrics returns the node's stats snapshot — the one served for a
// StatsCall, on the operator plane, to the fleet collector and into
// flight dumps. It takes rt.mu briefly, so callers must not hold it.
func (rt *Runtime) Metrics() Metrics {
	rt.mu.Lock()
	depth, live := len(rt.waiting), len(rt.ctxs)
	rt.mu.Unlock()
	m := Metrics{
		Binds:         rt.binds.Load(),
		InterAppSwaps: rt.interSwaps.Load(),
		IntraAppSwaps: rt.intraSwaps.Load(),
		Memory:        rt.mm.Stats(),
		Migrations:    rt.migrations.Load(),

		MigrationsStarted:   rt.migStarted.Load(),
		MigrationsCompleted: rt.migCompleted.Load(),
		MigrationsAborted:   rt.migAborted.Load(),
		FenceRejections:     rt.fenceRejections.Load(),
		LeaseRenewals:       rt.leaseRenewals.Load(),

		Recoveries:     rt.recoveries.Load(),
		Replays:        rt.replays.Load(),
		DeviceFailures: rt.deviceFailures.Load(),
		Offloaded:      rt.offloaded.Load(),
		UnbindRetries:  rt.unbindRetries.Load(),
		Readmissions:   rt.readmissions.Load(),
		Sheds:          rt.sheds.Load(),
		GPUTimeNS:      rt.gpuTimeNS.Load(),
		QueueDepth:     depth,
		LiveContexts:   live,
		Tenants:        rt.obsTenants.Snapshot(),
		Histograms:     rt.timings.Snapshot(),
	}
	for k, h := range m.Histograms {
		if strings.HasPrefix(k, trace.CallFamily.Key) {
			m.CallsServed += h.Count
		}
	}
	for _, ds := range rt.deviceList() {
		st := ds.dev.Stats()
		m.Devices = append(m.Devices, api.DeviceStats{
			Index:        ds.index,
			Name:         ds.dev.Spec().Name,
			Healthy:      ds.healthy.Load(),
			BusyNS:       int64(st.Busy),
			Launches:     st.Launches,
			H2DBytes:     st.H2DBytes,
			D2HBytes:     st.D2HBytes,
			ActiveVGPUs:  ds.activeVGPUs(),
			VGPUs:        len(ds.slots()),
			MemAvailable: ds.dev.Available(),
			Capacity:     ds.dev.Capacity(),
		})
	}
	return m
}

// VGPUCount reports the number of live (healthy-device) virtual GPUs —
// the value the runtime returns for cudaGetDeviceCount (§4.3).
func (rt *Runtime) VGPUCount() int {
	n := 0
	for _, ds := range rt.deviceList() {
		if !ds.healthy.Load() {
			continue
		}
		n += len(ds.slots())
	}
	return n
}

// QueueDepth reports how many contexts are waiting for a virtual GPU —
// the load signal used for inter-node offloading (§4.7).
func (rt *Runtime) QueueDepth() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.waiting)
}

// TenantAttribution returns the per-tenant attribution snapshot
// (internal/obs): what each tenant's sessions consumed on this node.
func (rt *Runtime) TenantAttribution() map[string]api.TenantUsage {
	return rt.obsTenants.Snapshot()
}

// flightCrashDump writes the black box before an armed crash point
// kills the process, so even a faultinject SIGKILL at a site that
// calls ckptlog.Die directly leaves a post-mortem behind.
func (rt *Runtime) flightCrashDump() {
	if rt.cfg.Flight != nil {
		rt.cfg.Flight.Dump("crash-point")
	}
}

// event is the runtime's one reporter: it hands a transition to every
// armed sink — the trace recorder, the flight recorder and OnEvent —
// and returns at once when none is. The trace recorder stamps the event
// as it takes its slot, and the other sinks get that stamp. Call sites
// are state transitions; the few on the swap path loop or build a
// detail only under rt.observed.
func (rt *Runtime) event(kind trace.Kind, ctx, other int64, device int, detail string) {
	if !rt.observed {
		return
	}
	e := trace.Event{Kind: kind, Ctx: ctx, Other: other, Device: device, Detail: detail}
	if rt.cfg.Trace != nil {
		e = rt.cfg.Trace.Record(e, rt.clock.Now)
	} else {
		e.Time = rt.clock.Now()
	}
	if rt.cfg.Flight != nil {
		rt.cfg.Flight.Note(e.Time, kind.String(), ctx, device, detail)
	}
	if rt.cfg.OnEvent != nil {
		rt.cfg.OnEvent(e)
	}
}

// eventf is event with a formatted detail, formatted only when a sink
// is armed.
func (rt *Runtime) eventf(kind trace.Kind, ctx int64, device int, format string, args ...any) {
	if rt.observed {
		rt.event(kind, ctx, 0, device, fmt.Sprintf(format, args...))
	}
}

// span is an in-flight causal span. A nil *span (no recorder
// configured) is valid: every method no-ops, so call sites instrument
// unconditionally.
type span struct {
	rt *Runtime
	s  trace.Span
}

// beginSpan opens a span at the current model time; parent is the
// enclosing span's ID (0 for roots). Returns nil without a recorder.
func (rt *Runtime) beginSpan(phase string, ctx int64, parent trace.SpanID) *span {
	if rt.cfg.Trace == nil {
		return nil
	}
	return &span{rt: rt, s: trace.Span{
		ID: trace.NewSpanID(), Parent: parent, Ctx: ctx,
		Phase: phase, Start: rt.clock.Now(), Device: -1,
	}}
}

// id returns the span's ID, 0 for a nil span.
func (sp *span) id() trace.SpanID {
	if sp == nil {
		return 0
	}
	return sp.s.ID
}

// end closes and records the span.
func (sp *span) end(device int, detail string, err error) {
	if sp == nil {
		return
	}
	sp.s.End = sp.rt.clock.Now()
	sp.s.Device = device
	sp.s.Detail = detail
	if err != nil {
		sp.s.Err = err.Error()
	}
	sp.rt.cfg.Trace.RecordSpan(sp.s)
}

// endIfTimed records the span only when model time advanced inside it
// — used for phases (swap-in) that usually complete instantly and
// would otherwise flood the ring with zero-length spans.
func (sp *span) endIfTimed(device int, detail string, err error) {
	if sp == nil {
		return
	}
	if sp.rt.clock.Now() == sp.s.Start && err == nil {
		return
	}
	sp.end(device, detail, err)
}

// Timings exposes the runtime's latency/size histograms (read-only
// use: snapshotting for exposition).
func (rt *Runtime) Timings() *trace.Timings { return &rt.timings }

// TraceRecorder returns the configured trace recorder, nil when
// tracing is off.
func (rt *Runtime) TraceRecorder() *trace.Recorder { return rt.cfg.Trace }

// NotePeerCall records one peer RPC round trip; the cluster layer's
// link wrapper feeds it.
func (rt *Runtime) NotePeerCall(d time.Duration) {
	rt.timings.PeerCall.Observe(int64(d))
}

// Close shuts the runtime down: waiting contexts are released with an
// error and the vGPU contexts are destroyed.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	devs := rt.devs
	rt.cond.Broadcast()
	rt.mu.Unlock()
	for _, ds := range devs {
		for _, v := range ds.slots() {
			v.cuctx.Destroy()
		}
	}
}
