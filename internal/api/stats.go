package api

import "gvrt/internal/trace"

// StatsCall asks a runtime daemon for its metrics snapshot — the
// operator-facing view of what the node is doing (the information §2
// suggests a node may expose to guide cluster-level scheduling:
// "number of GPUs, load level, etc.").
type StatsCall struct{}

// CallName implements Call.
func (StatsCall) CallName() string { return "gvrtStats" }

// DeviceStats is the per-device slice of RuntimeStats.
type DeviceStats struct {
	Index        int    `json:"index"`
	Name         string `json:"name"`
	Healthy      bool   `json:"healthy"`
	BusyNS       int64  `json:"busy_ns"`
	Launches     int64  `json:"launches"`
	H2DBytes     int64  `json:"h2d_bytes"`
	D2HBytes     int64  `json:"d2h_bytes"`
	ActiveVGPUs  int    `json:"active_vgpus"`
	VGPUs        int    `json:"vgpus"`
	MemAvailable uint64 `json:"mem_available"`
	Capacity     uint64 `json:"capacity"`
}

// TenantUsage is the per-tenant slice of RuntimeStats: every counter a
// multi-tenant operator needs to answer "which tenant is burning this
// resource?". Counters mirror their runtime-wide siblings exactly (same
// increment sites), so summing usage across tenants reproduces the
// node totals for any work done inside a tenant-joined session — the
// conservation property the cluster view is audited against.
type TenantUsage struct {
	// Sessions is the number of currently attached contexts.
	Sessions int64 `json:"sessions"`
	// Calls / Errors count calls served for the tenant's contexts and
	// how many returned an error.
	Calls  int64 `json:"calls"`
	Errors int64 `json:"errors"`
	// Launches counts kernel launches; GPUTimeNS is the modeled kernel
	// execution time attributed to them.
	Launches  int64 `json:"launches"`
	GPUTimeNS int64 `json:"gpu_time_ns"`
	// QueueWaitNS is total model time the tenant's calls spent parked
	// waiting for a free vGPU.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// SwapBytes / SwapOps / CheckpointBytes / MigrationBytes /
	// DedupSavedBytes attribute the memory plane: swap-out spills,
	// checkpoint flushes, cross-node migration wire bytes, and host
	// bytes avoided by dedup for images the tenant owns.
	SwapBytes       int64 `json:"swap_bytes"`
	SwapOps         int64 `json:"swap_ops"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	MigrationBytes  int64 `json:"migration_bytes"`
	DedupSavedBytes int64 `json:"dedup_saved_bytes"`
	// FenceRejections counts the tenant's mutating calls rejected with
	// ErrFenced; QuotaRejects counts admissions and allocations the
	// tenant's quota refused (the per-tenant face of load shedding).
	FenceRejections int64 `json:"fence_rejections"`
	QuotaRejects    int64 `json:"quota_rejects"`
	// Launch / QueueWait are the tenant-scoped latency distributions
	// (model-time nanoseconds), mergeable across nodes.
	Launch    trace.HistSnapshot `json:"launch,omitempty"`
	QueueWait trace.HistSnapshot `json:"queue_wait,omitempty"`
}

// RuntimeStats is the wire form of a runtime's metrics snapshot,
// returned (JSON-encoded in Reply.Data) for a StatsCall.
type RuntimeStats struct {
	CallsServed   int64 `json:"calls_served"`
	Binds         int64 `json:"binds"`
	InterAppSwaps int64 `json:"inter_app_swaps"`
	IntraAppSwaps int64 `json:"intra_app_swaps"`
	SwapOps       int64 `json:"swap_ops"`
	SwapBytes     int64 `json:"swap_bytes"`
	// CheckpointBytes counts device→swap bytes moved by checkpoint
	// flushes; SwapBytes above counts only real swap-out spills.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// PrefetchIssued / PrefetchHits / PrefetchSkipped describe the
	// predictive prefetcher: speculative swap-ins completed, launches
	// that found their working set already resident because of one,
	// and predictions dropped (context busy, no memory, queue full).
	PrefetchIssued  int64 `json:"prefetch_issued"`
	PrefetchHits    int64 `json:"prefetch_hits"`
	PrefetchSkipped int64 `json:"prefetch_skipped"`
	// DedupHits / DedupSavedBytes / CowBreaks describe swap-area
	// content deduplication: chunks found already interned, bytes of
	// host occupancy currently avoided, and sealed images privatised
	// by a mutating access.
	DedupHits       int64 `json:"dedup_hits"`
	DedupSavedBytes int64 `json:"dedup_saved_bytes"`
	CowBreaks       int64 `json:"cow_breaks"`
	Migrations      int64 `json:"migrations"`
	// MigrationsStarted / MigrationsCompleted / MigrationsAborted count
	// cross-node context migrations (journaled image transfers plus
	// failover promotions), as opposed to Migrations above, which counts
	// intra-node device re-bindings (§5.3.4 load balancing).
	MigrationsStarted   int64 `json:"migrations_started"`
	MigrationsCompleted int64 `json:"migrations_completed"`
	MigrationsAborted   int64 `json:"migrations_aborted"`
	// FenceRejections counts mutating calls rejected with ErrFenced
	// because the session's lease epoch moved; LeaseRenewals counts
	// successful lease extensions piggybacked on served calls.
	FenceRejections int64 `json:"fence_rejections"`
	LeaseRenewals   int64 `json:"lease_renewals"`
	Recoveries      int64 `json:"recoveries"`
	Replays         int64 `json:"replays"`
	DeviceFailures  int64 `json:"device_failures"`
	Offloaded       int64 `json:"offloaded"`
	UnbindRetries   int64 `json:"unbind_retries"`
	BreakerTrips    int64 `json:"breaker_trips"`
	Readmissions    int64 `json:"readmissions"`
	RetriesSpent    int64 `json:"retries_spent"`
	Sheds           int64 `json:"sheds"`
	// GPUTimeNS is total modeled kernel execution time across all
	// contexts — the node-level total the per-tenant GPUTimeNS figures
	// are conserved against.
	GPUTimeNS    int64         `json:"gpu_time_ns"`
	QueueDepth   int           `json:"queue_depth"`
	LiveContexts int           `json:"live_contexts"`
	Devices      []DeviceStats `json:"devices"`
	// Tenants carries per-tenant attribution, keyed by tenant name.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`
	// Histograms carries latency/size distributions keyed by metric
	// name ("launch_latency", "queue_wait", "call.cudaLaunch", ...).
	// Values are model-time nanoseconds except journal_commit_wall
	// (wall nanoseconds) and swap_bytes (bytes).
	Histograms map[string]trace.HistSnapshot `json:"histograms,omitempty"`
}
