package api

import "gvrt/internal/trace"

// StatsCall asks a runtime daemon for its metrics snapshot — the
// operator-facing view of what the node is doing (the information §2
// suggests a node may expose to guide cluster-level scheduling:
// "number of GPUs, load level, etc.").
type StatsCall struct{}

// CallName implements Call.
func (StatsCall) CallName() string { return "gvrtStats" }

// The stats structs below are the one declaration of every series the
// operator plane exposes. Each numeric field's metric tag reads
//
//	metric:"<counter|gauge|histogram>[,<name>][,ns] <help>"
//
// where name replaces the JSON key in the exposition name (counters
// gain _total) and ns marks nanoseconds exposed as seconds. A field
// without the tag is a label or a nested collection, not a series.

// DeviceStats is the per-device slice of RuntimeStats.
type DeviceStats struct {
	Index        int    `json:"index"`
	Name         string `json:"name"`
	Healthy      bool   `json:"healthy" metric:"gauge 1 when the device is healthy, 0 after a failure."`
	BusyNS       int64  `json:"busy_ns" metric:"counter,busy_seconds,ns Model seconds the device spent executing."`
	Launches     int64  `json:"launches" metric:"counter Kernel launches executed on the device."`
	H2DBytes     int64  `json:"h2d_bytes" metric:"counter Host-to-device bytes transferred."`
	D2HBytes     int64  `json:"d2h_bytes" metric:"counter Device-to-host bytes transferred."`
	ActiveVGPUs  int    `json:"active_vgpus" metric:"gauge Virtual GPUs currently bound to a context."`
	VGPUs        int    `json:"vgpus" metric:"gauge Virtual GPUs configured on the device."`
	MemAvailable uint64 `json:"mem_available" metric:"gauge,mem_available_bytes Device memory currently available."`
	Capacity     uint64 `json:"capacity" metric:"gauge,capacity_bytes Device memory capacity."`
}

// TenantUsage is the per-tenant slice of RuntimeStats: every counter a
// multi-tenant operator needs to answer "which tenant is burning this
// resource?". Counters mirror their runtime-wide siblings exactly (same
// increment sites), so summing usage across tenants reproduces the
// node totals for any work done inside a tenant-joined session — the
// conservation property the cluster view is audited against.
type TenantUsage struct {
	// Sessions is the number of currently attached contexts.
	Sessions int64 `json:"sessions" metric:"gauge Sessions currently admitted for the tenant."`
	// Calls / Errors count calls served for the tenant's contexts and
	// how many returned an error.
	Calls  int64 `json:"calls" metric:"counter CUDA calls served for the tenant."`
	Errors int64 `json:"errors" metric:"counter Calls that returned an error to the tenant."`
	// Launches counts kernel launches; GPUTimeNS is the modeled kernel
	// execution time attributed to them.
	Launches  int64 `json:"launches" metric:"counter Kernel launches completed for the tenant."`
	GPUTimeNS int64 `json:"gpu_time_ns" metric:"counter,gpu_seconds,ns Model seconds of GPU execution attributed to the tenant."`
	// QueueWaitNS is total model time the tenant's calls spent parked
	// waiting for a free vGPU.
	QueueWaitNS int64 `json:"queue_wait_ns" metric:"counter,queue_wait_seconds,ns Model seconds the tenant's contexts spent queued for a vGPU."`
	// SwapBytes / SwapOps / CheckpointBytes / MigrationBytes attribute
	// the memory plane: swap-out spills, checkpoint flushes and
	// cross-node migration wire bytes.
	SwapBytes       int64 `json:"swap_bytes" metric:"counter Swap-area bytes moved on behalf of the tenant."`
	SwapOps         int64 `json:"swap_ops" metric:"counter Swap-area operations attributed to the tenant."`
	CheckpointBytes int64 `json:"checkpoint_bytes" metric:"counter Checkpoint bytes written for the tenant."`
	MigrationBytes  int64 `json:"migration_bytes" metric:"counter Migration wire bytes shipped for the tenant."`
	// FenceRejections counts the tenant's mutating calls rejected with
	// ErrFenced; QuotaRejects counts admissions and allocations the
	// tenant's quota refused (the per-tenant face of load shedding).
	FenceRejections int64 `json:"fence_rejections" metric:"counter Tenant calls rejected by the session-lease write fence."`
	QuotaRejects    int64 `json:"quota_rejects" metric:"counter Tenant admissions or allocations rejected by quota."`
	// Launch / QueueWait are the tenant-scoped latency distributions
	// (model-time nanoseconds), mergeable across nodes.
	Launch    trace.HistSnapshot `json:"launch,omitempty" metric:"histogram,launch_latency_seconds,ns Per-tenant kernel launch service time (model seconds)."`
	QueueWait trace.HistSnapshot `json:"queue_wait,omitempty" metric:"histogram,queue_wait_seconds,ns Per-tenant vGPU queue wait (model seconds)."`
}

// Memory is the memory manager's slice of RuntimeStats (§4.5). It is
// embedded, so its fields sit at the snapshot's top level on the wire.
type Memory struct {
	// SwapOps counts page-table entries swapped out (device→swap spill
	// plus device free), the quantity reported on top of the bars in
	// Figures 7 and 8.
	SwapOps int64 `json:"swap_ops" metric:"counter Swap-area operations."`
	// SwapBytes counts bytes moved device→swap by swap operations.
	SwapBytes int64 `json:"swap_bytes" metric:"counter Bytes moved through the swap area."`
	// CheckpointBytes counts bytes flushed device→swap by checkpoints
	// (kept apart from SwapBytes, which measures only real swap-out
	// spills — the quantity the evaluation plots).
	CheckpointBytes int64 `json:"checkpoint_bytes" metric:"counter Device-to-swap bytes moved by checkpoint flushes."`
	// CoalescedWrites counts host→device transfers avoided because
	// several deferred writes to one entry were folded into a single
	// bulk transfer.
	CoalescedWrites int64 `json:"coalesced_writes" metric:"counter Host-to-device transfers avoided by folding deferred writes into one bulk copy."`
	// BadOpsRejected counts out-of-bounds or invalid-pointer operations
	// rejected before reaching the CUDA runtime (§4.5: bad memory
	// operations are detected without overloading the CUDA runtime).
	BadOpsRejected int64 `json:"bad_ops_rejected" metric:"counter Invalid or out-of-bounds memory operations rejected before reaching CUDA."`
	// Checkpoints counts explicit and automatic checkpoint flushes.
	Checkpoints int64 `json:"checkpoints" metric:"counter Explicit and automatic checkpoint flushes."`
	// HostBytesInUse is the current swap-area occupancy (modeled).
	HostBytesInUse uint64 `json:"host_bytes_in_use" metric:"gauge Swap-area host bytes currently in use."`
}

// RuntimeStats is a runtime's metrics snapshot (Runtime.Metrics),
// returned JSON-encoded in Reply.Data for a StatsCall.
type RuntimeStats struct {
	CallsServed   int64 `json:"calls_served" metric:"counter CUDA calls served."`
	Binds         int64 `json:"binds" metric:"counter Context-to-vGPU bindings."`
	InterAppSwaps int64 `json:"inter_app_swaps" metric:"counter Inter-application swap-outs (context evictions)."`
	IntraAppSwaps int64 `json:"intra_app_swaps" metric:"counter Intra-application swap-outs (working-set evictions)."`
	Memory
	// PrefetchHits is retired with predictive prefetch and is always
	// zero. It stays only because benchmark/ reads it; delete it when
	// the benchmark module drops that read.
	PrefetchHits int64 `json:"prefetch_hits" metric:"counter Launches that found their working set resident because of a prefetch."`
	Migrations   int64 `json:"migrations" metric:"counter Inter-device context migrations."`
	// MigrationsStarted / MigrationsCompleted / MigrationsAborted count
	// cross-node context migrations (journaled image transfers plus
	// failover promotions), as opposed to Migrations above, which counts
	// intra-node device re-bindings (§5.3.4 load balancing).
	MigrationsStarted   int64 `json:"migrations_started" metric:"counter Cross-node session migrations started."`
	MigrationsCompleted int64 `json:"migrations_completed" metric:"counter Cross-node session migrations committed on the target."`
	MigrationsAborted   int64 `json:"migrations_aborted" metric:"counter Cross-node session migrations aborted or refused."`
	// FenceRejections counts mutating calls rejected with ErrFenced
	// because the session's lease epoch moved; LeaseRenewals counts
	// successful lease extensions piggybacked on served calls.
	FenceRejections int64 `json:"fence_rejections" metric:"counter Mutating calls rejected by the session-lease write fence."`
	LeaseRenewals   int64 `json:"lease_renewals" metric:"counter Session-lease renewals piggybacked on served calls."`
	Recoveries      int64 `json:"recoveries" metric:"counter Device-failure recoveries."`
	Replays         int64 `json:"replays" metric:"counter Kernels replayed during recovery."`
	DeviceFailures  int64 `json:"device_failures" metric:"counter Device failures observed."`
	Offloaded       int64 `json:"offloaded" metric:"counter Connections offloaded to a peer node."`
	UnbindRetries   int64 `json:"unbind_retries" metric:"counter Unbind attempts retried."`
	BreakerTrips    int64 `json:"breaker_trips" metric:"counter Circuit-breaker trips on peer links."`
	Readmissions    int64 `json:"readmissions" metric:"counter Offloaded connections readmitted locally."`
	RetriesSpent    int64 `json:"retries_spent" metric:"counter Retry-budget tokens spent."`
	Sheds           int64 `json:"sheds" metric:"counter Connections shed by admission control."`
	// GPUTimeNS is total modeled kernel execution time across all
	// contexts — the node-level total the per-tenant GPUTimeNS figures
	// are conserved against.
	GPUTimeNS    int64         `json:"gpu_time_ns" metric:"counter,gpu_seconds,ns Model seconds of kernel execution across all contexts (the per-tenant conservation anchor)."`
	QueueDepth   int           `json:"queue_depth" metric:"gauge Contexts waiting for a virtual GPU."`
	LiveContexts int           `json:"live_contexts" metric:"gauge Live application contexts."`
	Devices      []DeviceStats `json:"devices"`
	// Tenants carries per-tenant attribution, keyed by tenant name.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`
	// Histograms carries latency/size distributions keyed by family
	// (trace.Families: "launch_latency", "queue_wait", ...) or
	// "call.<kind>"; each family declares its unit.
	Histograms map[string]trace.HistSnapshot `json:"histograms,omitempty"`
}
