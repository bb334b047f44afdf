// Package gvrt is a virtual-memory based runtime for GPU multi-tenancy
// — a full reimplementation, over a simulated CUDA stack, of the system
// described in Becchi et al., "A Virtual Memory Based Runtime to
// Support Multi-tenancy in Clusters with GPUs" (HPDC 2012).
//
// # Architecture
//
// Applications link the intercept Client (package frontend behind this
// façade) instead of the CUDA runtime; every CUDA call travels over a
// connection to a node-level Runtime daemon, which owns the node's GPUs
// through a configurable number of virtual GPUs per device. A memory
// manager gives each application virtual device pointers backed by a
// host-side swap area, making application→GPU binding dynamic: the
// runtime time-shares GPUs between applications whose aggregate memory
// needs exceed device capacity (inter-application swap), runs
// applications whose own footprint exceeds the device (intra-application
// swap), migrates applications from slow to fast GPUs, survives GPU
// failures by replaying kernels from the last checkpoint, and offloads
// excess application threads to peer nodes.
//
// # Quick start
//
//	clock := gvrt.NewClock(0.001) // 1 model second = 1 wall ms
//	dev := gvrt.NewDevice(0, gvrt.TeslaC2050, clock)
//	crt := gvrt.NewCUDARuntime(clock, dev)
//	rt, err := gvrt.NewRuntime(crt, gvrt.Config{})
//	...
//	conn, serverConn := gvrt.Pipe()
//	go rt.Serve(serverConn)
//	client := gvrt.Connect(conn)
//	ptr, err := client.Malloc(1 << 20)
//
// See examples/ for complete programs and cmd/benchrun for the
// reproduction of the paper's evaluation.
//
// # Model time
//
// All durations are model time executed as scaled wall time through a
// Clock; the hardware model (device speeds, memory sizes, PCIe
// bandwidth, CUDA limits) is documented in DESIGN.md.
package gvrt

import (
	"io"
	"net/http"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/cluster"
	"gvrt/internal/core"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/memmgr"
	"gvrt/internal/obs"
	"gvrt/internal/opserver"
	"gvrt/internal/sched"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

// Core types.
type (
	// Runtime is the gvrt node-level runtime daemon (paper §4).
	Runtime = core.Runtime
	// Config tunes a Runtime; the zero value is the paper's evaluation
	// configuration (4 vGPUs per device, FCFS, transfer deferral).
	Config = core.Config
	// Metrics is a snapshot of a Runtime's counters.
	Metrics = core.Metrics
	// Client is the application-side intercept library: one Client per
	// application thread.
	Client = frontend.Client
	// Clock is the model-time clock everything runs on.
	Clock = sim.Clock
	// RNG is a deterministic random source for workload generation.
	RNG = sim.RNG
)

// Hardware and CUDA substrate types.
type (
	// Device is one simulated GPU.
	Device = gpu.Device
	// DeviceSpec describes a GPU model.
	DeviceSpec = gpu.Spec
	// DeviceStats is a snapshot of a device's activity counters.
	DeviceStats = gpu.Stats
	// CUDARuntime is the simulated CUDA driver+runtime a Runtime is
	// built on (and the baseline applications can run against).
	CUDARuntime = cudart.Runtime
	// CUDAContext is a bare CUDA context on one device.
	CUDAContext = cudart.Context
)

// Wire-level types.
type (
	// DevPtr is a (virtual) device pointer.
	DevPtr = api.DevPtr
	// Dim3 is a CUDA launch dimension.
	Dim3 = api.Dim3
	// FatBinary carries an application's kernels.
	FatBinary = api.FatBinary
	// KernelMeta describes one kernel.
	KernelMeta = api.KernelMeta
	// KernelFunc is a host-side kernel implementation operating on
	// simulated device memory.
	KernelFunc = api.KernelFunc
	// KernelMemory gives a KernelFunc access to its buffers.
	KernelMemory = api.KernelMemory
	// LaunchCall is a kernel launch request.
	LaunchCall = api.LaunchCall
	// Error is a CUDA-style result code.
	Error = api.Error
	// RuntimeStats is the wire form of a daemon's metrics snapshot
	// (Client.Stats).
	RuntimeStats = api.RuntimeStats
	// DeviceWireStats is the per-device slice of RuntimeStats. (The
	// richer local view of a gpu.Device is DeviceStats.)
	DeviceWireStats = api.DeviceStats
	// Conn is the client side of a runtime connection.
	Conn = transport.Conn
	// ServerConn is the runtime side of a connection.
	ServerConn = transport.ServerConn
	// Listener accepts runtime connections over TCP.
	Listener = transport.Listener
)

// Scheduling policy types (paper §2 "Configurable Scheduling").
type (
	// Policy decides device choice and waiting-list order.
	Policy = sched.Policy
	// FCFS is first-come-first-served with balanced device choice.
	FCFS = sched.FCFS
	// ShortestJobFirst favours the shortest pending kernel.
	ShortestJobFirst = sched.ShortestJobFirst
	// CreditBased favours contexts that consumed the least GPU time.
	CreditBased = sched.CreditBased
	// EarliestDeadlineFirst serves the tightest declared QoS deadline
	// first (Client.SetDeadline).
	EarliestDeadlineFirst = sched.EarliestDeadlineFirst
)

// Workload and cluster types.
type (
	// App is one benchmark application trace (paper Table 2).
	App = workload.App
	// BatchResult aggregates a concurrent batch run.
	BatchResult = workload.BatchResult
	// CUDAClient is the call surface an App needs; both Client and the
	// bare-runtime adapter satisfy it.
	CUDAClient = workload.CUDA
	// ClusterNode is one compute node (devices + runtimes).
	ClusterNode = cluster.Node
	// ClusterHead is the TORQUE-like resource manager.
	ClusterHead = cluster.Head
	// MemoryStats is a snapshot of the memory manager's counters.
	MemoryStats = memmgr.Stats
)

// Tracing types: plug a TraceRecorder into Config.Trace to capture the
// runtime's scheduling decisions (bindings, swaps, migrations,
// failures, recoveries, offloads) as structured events.
type (
	// TraceRecorder is a bounded ring buffer of runtime events.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded runtime event.
	TraceEvent = trace.Event
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
)

// Trace event kinds.
const (
	TraceConnect     = trace.KindConnect
	TraceBind        = trace.KindBind
	TraceUnbind      = trace.KindUnbind
	TraceIntraSwap   = trace.KindIntraSwap
	TraceInterSwap   = trace.KindInterSwap
	TraceMigration   = trace.KindMigration
	TraceCheckpoint  = trace.KindCheckpoint
	TraceFailure     = trace.KindFailure
	TraceRecovery    = trace.KindRecovery
	TraceOffload     = trace.KindOffload
	TraceShed        = trace.KindShed
	TraceBreakerTrip = trace.KindBreakerTrip
	TraceBreakerHeal = trace.KindBreakerHeal
	TraceExit        = trace.KindExit
	TraceFence       = trace.KindFence
	TraceCrossMig    = trace.KindCrossMigration
)

// Causal-span and histogram types (DESIGN.md §10): a Runtime with a
// TraceRecorder decomposes every served call into parented phase spans
// (queue-wait, bind, swap-in, h2d, launch, ...), and always records
// log2-bucketed latency histograms served in RuntimeStats.Histograms.
type (
	// Span is one timed phase of runtime work, in model time.
	Span = trace.Span
	// SpanID identifies a Span; it travels across offload hops so a
	// peer's spans parent to the head node's offload span.
	SpanID = trace.SpanID
	// HistSnapshot is a point-in-time copy of a latency histogram
	// (RuntimeStats.Histograms values); Delta + Quantile give interval
	// percentiles.
	HistSnapshot = trace.HistSnapshot
	// ChromeProcess groups one node's spans and events for
	// WriteChromeTrace.
	ChromeProcess = trace.ChromeProcess
)

// NewTraceRecorder creates a recorder retaining the most recent
// capacity events.
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// WriteChromeTrace renders spans and events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. Pass one
// ChromeProcess per node; parent links that cross nodes (offload hops)
// are drawn as flow arrows.
func WriteChromeTrace(w io.Writer, procs ...ChromeProcess) error {
	return trace.WriteChromeTrace(w, procs...)
}

// HistogramBucketBound returns the exclusive upper bound of log2
// histogram bucket i, shared by every HistSnapshot.
func HistogramBucketBound(i int) int64 { return trace.BucketBound(i) }

// OpsSource is the slice of a runtime the HTTP operator plane reads.
type OpsSource = opserver.Source

// NewOpsHandler builds the HTTP operator plane (/metrics Prometheus
// text, /statusz, /tracez, /trace.json, /debug/pprof) from a source.
func NewOpsHandler(src OpsSource) http.Handler { return opserver.Handler(src) }

// Cluster-scoped observability (DESIGN.md §15): per-tenant attribution,
// fleet-wide metric aggregation, SLO burn-rate evaluation and the
// crash flight recorder.
type (
	// TenantUsage is one tenant's cumulative attributed usage on a
	// node (RuntimeStats.Tenants values) or across a fleet merge.
	TenantUsage = api.TenantUsage
	// FleetCollector pulls peer stats snapshots and merges them into a
	// cluster-scoped view.
	FleetCollector = obs.Collector
	// ClusterStats is one fleet collection: per-node snapshots, the
	// merged rollup, and the peers that could not be reached.
	ClusterStats = obs.ClusterStats
	// SLOEngine evaluates per-tenant objectives as multi-window burn
	// rates over usage snapshots.
	SLOEngine = obs.SLOEngine
	// SLOEngineOptions configures an SLOEngine.
	SLOEngineOptions = obs.SLOEngineOptions
	// SLOObjective is one tenant's service-level objective.
	SLOObjective = obs.Objective
	// SLOStatus is the evaluated state of one tenant/kind pair.
	SLOStatus = obs.SLOStatus
	// SLOEvent is published on alert-state transitions.
	SLOEvent = obs.SLOEvent
	// FlightRecorder is a node's bounded black-box event ring, dumped
	// atomically on panics, fence/breaker storms and armed crashes.
	FlightRecorder = obs.FlightRecorder
	// FlightDump is one post-mortem dump a FlightRecorder wrote.
	FlightDump = obs.FlightDump
	// FlightRecord is one entry of a FlightDump's ring.
	FlightRecord = obs.FlightRecord
)

// NewFleetCollector builds a collector over the local runtime's stats;
// add peers with AddPeer. cluster.FleetCollector wires one up for an
// in-process Head.
func NewFleetCollector(self string, local func() RuntimeStats) *FleetCollector {
	return obs.NewCollector(self, local)
}

// NewSLOEngine builds a burn-rate engine; Objectives and Usage are
// required.
func NewSLOEngine(opts SLOEngineOptions) *SLOEngine { return obs.NewSLOEngine(opts) }

// NewFlightRecorder builds a flight recorder for node, dumping into
// dir; capacity <= 0 selects the default ring size.
func NewFlightRecorder(node, dir string, capacity int) *FlightRecorder {
	return obs.NewFlightRecorder(node, dir, capacity)
}

// ReadFlightDump loads and schema-checks a flight-recorder dump.
func ReadFlightDump(path string) (*FlightDump, error) { return obs.ReadFlightDump(path) }

// Fault-injection types: arm Config.Faults with a FaultPlane built from
// a seeded FaultPlan and the runtime injects deterministic, replayable
// faults at every layer (devices, swap area, dispatcher, cluster
// links). See cmd/gvrt-chaos and EXPERIMENTS.md for the workflow.
type (
	// FaultPlane is an armed FaultPlan the runtime layers consult.
	FaultPlane = faultinject.Plane
	// FaultPlan is a named, seeded set of fault rules.
	FaultPlan = faultinject.Plan
	// FaultRule arms one fault at one injection point.
	FaultRule = faultinject.Rule
	// FaultPoint names a class of injection sites.
	FaultPoint = faultinject.Point
	// FaultFired is one entry of a plane's fired-fault schedule.
	FaultFired = faultinject.Fired
)

// Fault injection points.
const (
	FaultTransportCall   = faultinject.PointTransportCall
	FaultClusterLink     = faultinject.PointClusterLink
	FaultDeviceExec      = faultinject.PointDeviceExec
	FaultDeviceDMA       = faultinject.PointDeviceDMA
	FaultDeviceMalloc    = faultinject.PointDeviceMalloc
	FaultSwapWrite       = faultinject.PointSwapWrite
	FaultSwapAlloc       = faultinject.PointSwapAlloc
	FaultDispatch        = faultinject.PointDispatch
	FaultJournalPreSync  = faultinject.PointJournalPreSync
	FaultJournalPostSync = faultinject.PointJournalPostSync
	FaultJournalCompact  = faultinject.PointJournalCompact
	FaultLeaseCheck      = faultinject.PointLeaseCheck
	FaultMigrateTransfer = faultinject.PointMigrateTransfer
	FaultMigrateImport   = faultinject.PointMigrateImport
	FaultStorePreSync    = faultinject.PointStorePreSync
	FaultStorePostSync   = faultinject.PointStorePostSync
	FaultStoreCompact    = faultinject.PointStoreCompact
	FaultCtrlOpStep      = faultinject.PointCtrlOpStep
)

// Fault actions.
const (
	FaultActError      = faultinject.ActError
	FaultActDelay      = faultinject.ActDelay
	FaultActCorrupt    = faultinject.ActCorrupt
	FaultActDrop       = faultinject.ActDrop
	FaultActFailDevice = faultinject.ActFailDevice
	FaultActPartition  = faultinject.ActPartition
	FaultActCrash      = faultinject.ActCrash
)

// Crash-consistent checkpoint journal (DESIGN.md §9): an append-only,
// CRC-framed record log that shadows the runtime's §4.6 checkpoint
// state on disk, so committed sessions survive daemon kills, torn
// writes and individually corrupt context images.
type (
	// Journal is an open checkpoint journal.
	Journal = ckptlog.Journal
	// JournalOptions tunes a journal (crash points, auto-compaction).
	JournalOptions = ckptlog.Options
	// JournalRecovered is the durable state OpenJournal reconstructed.
	JournalRecovered = ckptlog.Recovered
	// JournalQuarantine reports one context image recovery discarded.
	JournalQuarantine = ckptlog.Quarantine
	// JournalStats is a snapshot of a journal's counters.
	JournalStats = ckptlog.Stats
)

// OpenJournal opens (creating if needed) a journal directory and
// recovers its durable state: torn journal tails are truncated,
// individually corrupt context images quarantined. Feed the recovered
// state to Runtime.RecoverFromJournal, then Runtime.AttachJournal.
func OpenJournal(dir string, opts JournalOptions) (*Journal, *JournalRecovered, error) {
	return ckptlog.Open(dir, opts)
}

// JournalDie is the production OnCrash handler: SIGKILL the process at
// the armed boundary, exactly as a power loss would.
func JournalDie() { ckptlog.Die() }

// ErrCorruptJournalSnapshot reports an unrecoverable journal: the
// snapshot header itself is unreadable. Operators must intervene
// (restore the directory or move it aside) — silently starting empty
// would discard every committed session.
var ErrCorruptJournalSnapshot = ckptlog.ErrCorruptSnapshot

// NewFaultPlane arms a fault plan.
func NewFaultPlane(plan FaultPlan) *FaultPlane { return faultinject.New(plan) }

// Failover plane (DESIGN.md §13): lease-fenced session ownership and
// journaled live context migration across nodes.
type (
	// LeaseTable is the cluster's shared session-lease registry; wire
	// the same Table into every node's Config.Leases.
	LeaseTable = failover.Table
	// Lease is one session's ownership record.
	Lease = failover.Lease
	// MigrationPendingRecord describes one in-flight migration import
	// (the target's crash-safety sidecar).
	MigrationPendingRecord = failover.PendingRecord
)

// NewLeaseTable builds a session-lease table with the given TTL (<= 0
// selects the default) over the cluster's model clock.
func NewLeaseTable(ttl time.Duration, now func() time.Duration) *LeaseTable {
	return failover.NewTable(ttl, now)
}

// MigrationPendingOps lists the in-flight import records in a migration
// directory (operator introspection; boot-time recovery resolves them).
func MigrationPendingOps(dir string) []MigrationPendingRecord {
	return failover.PendingOps(dir)
}

// Crash-resumable control plane (DESIGN.md §14): a transactional
// embedded cluster store (tenants, quotas, device/node membership) and
// a pending-operation engine that makes every mutating administrative
// action survive daemon crashes — recorded before execution, executed
// in idempotent steps, and at boot resumed or rolled back.
type (
	// CtrlStore is the keyed transactional store (CRC-framed WAL +
	// atomic-rename compaction, the checkpoint journal's discipline
	// generalized to arbitrary keys).
	CtrlStore = ctrlplane.Store
	// CtrlStoreOptions tunes a CtrlStore (crash points, compaction).
	CtrlStoreOptions = ctrlplane.Options
	// CtrlStoreStats is a snapshot of a store's counters.
	CtrlStoreStats = ctrlplane.Stats
	// CtrlManager executes mutations as journaled pending operations.
	CtrlManager = ctrlplane.Manager
	// CtrlManagerOptions tunes a CtrlManager.
	CtrlManagerOptions = ctrlplane.ManagerOptions
	// CtrlHooks is the runtime surface the control plane drives; the
	// Runtime implements it.
	CtrlHooks = ctrlplane.Hooks
	// CtrlOp is one journaled pending operation.
	CtrlOp = ctrlplane.Op
	// CtrlTenant is a registered tenant.
	CtrlTenant = ctrlplane.Tenant
	// CtrlQuota bounds a tenant's sessions and aggregate bytes.
	CtrlQuota = ctrlplane.Quota
	// CtrlSLO is one tenant's stored service-level objective record
	// (the declarative half; obs.SLOEngine evaluates it).
	CtrlSLO = ctrlplane.SLO
	// CtrlDeviceRec is a device membership record.
	CtrlDeviceRec = ctrlplane.DeviceRec
	// CtrlEvent describes one store commit to an /events watcher.
	CtrlEvent = ctrlplane.Event
	// CtrlCounters is a snapshot of a manager's operation counters.
	CtrlCounters = ctrlplane.Counters
)

// OpenCtrlStore opens (creating if needed) a control-plane store
// directory, recovering its state: torn WAL tails truncated, corrupt
// records quarantined.
func OpenCtrlStore(dir string, opts CtrlStoreOptions) (*CtrlStore, error) {
	return ctrlplane.Open(dir, opts)
}

// NewCtrlManager builds the pending-operation engine over an open
// store. Call Resume once at boot (before serving), then SyncDevices
// and ApplyStored to reconcile the runtime with the stored state.
func NewCtrlManager(store *CtrlStore, opts CtrlManagerOptions) *CtrlManager {
	return ctrlplane.NewManager(store, opts)
}

// ErrCorruptCtrlSnapshot reports an unrecoverable control-plane store
// snapshot header; operators must restore or move the directory aside.
var ErrCorruptCtrlSnapshot = ctrlplane.ErrCorruptSnapshot

// Device models from the paper's testbed (§5.1).
var (
	TeslaC2050 = gpu.TeslaC2050
	TeslaC1060 = gpu.TeslaC1060
	Quadro2000 = gpu.Quadro2000
)

// CUDA-style result codes (a subset; see the api package for all).
const (
	Success                 = api.Success
	ErrMemoryAllocation     = api.ErrMemoryAllocation
	ErrInvalidValue         = api.ErrInvalidValue
	ErrInvalidDevicePointer = api.ErrInvalidDevicePointer
	ErrLaunchFailure        = api.ErrLaunchFailure
	ErrNoDevice             = api.ErrNoDevice
	ErrDeviceUnavailable    = api.ErrDeviceUnavailable
	ErrTooManyContexts      = api.ErrTooManyContexts
	ErrRuntimeUnstable      = api.ErrRuntimeUnstable
	ErrSwapAllocation       = api.ErrSwapAllocation
	ErrConnectionClosed     = api.ErrConnectionClosed
	ErrDeadlineExceeded     = api.ErrDeadlineExceeded
	ErrOverloaded           = api.ErrOverloaded
	ErrSessionClaimed       = api.ErrSessionClaimed
	ErrJournalFailure       = api.ErrJournalFailure
	ErrFenced               = api.ErrFenced
	ErrQuotaExceeded        = api.ErrQuotaExceeded
)

// ErrorCode extracts the result code from an error returned by the
// runtime or a Client: nil maps to Success, an Error anywhere in the
// wrap chain to itself, anything else to ErrLaunchFailure.
func ErrorCode(err error) Error { return api.Code(err) }

// NewClock returns a model clock executing one model second in scale
// wall seconds (0 or negative selects the 1 ms default).
func NewClock(scale float64) *Clock { return sim.NewClock(scale) }

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// NewDevice creates a simulated GPU.
func NewDevice(id int, spec DeviceSpec, clock *Clock) *Device {
	return gpu.NewDevice(id, spec, clock)
}

// NewCUDARuntime creates the simulated CUDA driver+runtime for a node.
func NewCUDARuntime(clock *Clock, devices ...*Device) *CUDARuntime {
	return cudart.New(clock, devices...)
}

// NewRuntime creates the gvrt node runtime over a CUDA runtime.
func NewRuntime(crt *CUDARuntime, cfg Config) (*Runtime, error) {
	return core.New(crt, cfg)
}

// Pipe creates a connected in-process (client, server) connection pair.
func Pipe() (Conn, ServerConn) { return transport.Pipe() }

// Dial connects to a runtime daemon over TCP.
func Dial(addr string) (Conn, error) { return transport.Dial(addr) }

// Listen starts a TCP listener for runtime connections.
func Listen(addr string) (*Listener, error) { return transport.Listen(addr) }

// Connect wraps a connection as an application-side Client.
func Connect(conn Conn) *Client { return frontend.Connect(conn) }

// RegisterKernelImpl installs a process-local host implementation for a
// kernel, enabling end-to-end data flow through the simulated stack.
func RegisterKernelImpl(binaryID, kernel string, fn KernelFunc) {
	api.RegisterKernelImpl(binaryID, kernel, fn)
}

// NewClusterNode builds a compute node with the given devices.
func NewClusterNode(name string, clock *Clock, specs []DeviceSpec, cfg Config) (*ClusterNode, error) {
	return cluster.NewNode(name, clock, specs, cfg)
}

// NewClusterHead builds a TORQUE-like head over compute nodes.
func NewClusterHead(clock *Clock, nodes ...*ClusterNode) *ClusterHead {
	return cluster.NewHead(clock, nodes...)
}

// RunApp drives an application trace against a client.
func RunApp(clock *Clock, c CUDAClient, app App) error {
	return workload.Run(clock, c, app)
}

// RunBatch launches all apps concurrently and waits for the batch.
func RunBatch(clock *Clock, apps []App, connect func(job int) (CUDAClient, error)) BatchResult {
	return workload.RunBatch(clock, apps, connect)
}

// RandomShortBatch draws n jobs from the paper's short-running pool.
func RandomShortBatch(rng *RNG, n int) []App { return workload.RandomShortBatch(rng, n) }

// MixedLongBatch builds n long-running jobs: bslPercent% are BS-L and
// the rest MM-L with the given CPU fraction (the Figure 8/11 mixes).
func MixedLongBatch(n, bslPercent int, mmlCPUFraction float64) []App {
	return workload.MixedBatch(n, bslPercent, mmlCPUFraction)
}

// Benchmarks returns one instance of every Table 2 program.
func Benchmarks() []App { return workload.AllApps() }

// BenchmarkByName builds one Table 2 program by name; cpuFraction
// applies to the parameterised matrix multiplications (MM-S, MM-L) and
// is ignored for the rest. ok is false for an unknown name.
func BenchmarkByName(name string, cpuFraction float64) (App, bool) {
	switch name {
	case "MM-S":
		return workload.MMS(cpuFraction), true
	case "MM-L":
		return workload.MML(cpuFraction), true
	}
	for _, mk := range workload.ShortApps() {
		if app := mk(); app.Name == name {
			return app, true
		}
	}
	if name == "BS-L" {
		return workload.BSL(), true
	}
	return App{}, false
}

// NewBareClient attaches directly to the bare CUDA runtime (baseline).
func NewBareClient(crt *CUDARuntime, device int) (CUDAClient, error) {
	return workload.NewBareClient(crt, device)
}

// LocalNode bundles the common single-node setup: devices, CUDA
// runtime and gvrt runtime, with in-process client connections.
type LocalNode struct {
	ClockV *Clock
	CRT    *CUDARuntime
	RT     *Runtime
}

// NewLocalNode builds a ready-to-use single node.
func NewLocalNode(clock *Clock, cfg Config, specs ...DeviceSpec) (*LocalNode, error) {
	devs := make([]*Device, len(specs))
	for i, s := range specs {
		devs[i] = NewDevice(i, s, clock)
	}
	crt := NewCUDARuntime(clock, devs...)
	rt, err := NewRuntime(crt, cfg)
	if err != nil {
		return nil, err
	}
	return &LocalNode{ClockV: clock, CRT: crt, RT: rt}, nil
}

// Clock returns the node's model clock.
func (n *LocalNode) Clock() *Clock { return n.ClockV }

// OpenClient opens an in-process client served by the node's runtime.
func (n *LocalNode) OpenClient() *Client {
	c, s := Pipe()
	go n.RT.HandleConn(s)
	return Connect(c)
}

// Close shuts the node's runtime down.
func (n *LocalNode) Close() { n.RT.Close() }
