package opserver

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gvrt/internal/api"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/trace"
)

// This file renders a RuntimeStats snapshot as Prometheus text
// exposition format (version 0.0.4). The runtime's log2 histograms map
// directly onto Prometheus histograms: bucket i's upper bound is
// 2^i nanoseconds, exposed in seconds, with the trimmed tail folded
// into +Inf.

// counter pairs a metric name with a monotonic value.
type counter struct {
	name  string
	help  string
	value int64
}

// statCounters lists the snapshot's monotonic counters in exposition
// order. /statusz reuses it so the two views can never drift.
func statCounters(s api.RuntimeStats) []counter {
	return []counter{
		{"calls_served_total", "CUDA calls served.", s.CallsServed},
		{"binds_total", "Context-to-vGPU bindings.", s.Binds},
		{"inter_app_swaps_total", "Inter-application swap-outs (context evictions).", s.InterAppSwaps},
		{"intra_app_swaps_total", "Intra-application swap-outs (working-set evictions).", s.IntraAppSwaps},
		{"swap_ops_total", "Swap-area operations.", s.SwapOps},
		{"swap_bytes_total", "Bytes moved through the swap area.", s.SwapBytes},
		{"checkpoint_bytes_total", "Device-to-swap bytes moved by checkpoint flushes.", s.CheckpointBytes},
		{"prefetch_issued_total", "Speculative swap-ins the prefetcher completed.", s.PrefetchIssued},
		{"prefetch_hits_total", "Launches that found their working set resident because of a prefetch.", s.PrefetchHits},
		{"prefetch_skipped_total", "Prefetch predictions dropped (context busy, no memory, queue full).", s.PrefetchSkipped},
		{"dedup_hits_total", "Swap-image chunks found already interned.", s.DedupHits},
		{"cow_breaks_total", "Sealed swap images privatised by a mutating access.", s.CowBreaks},
		{"migrations_total", "Inter-device context migrations.", s.Migrations},
		{"migrations_started_total", "Cross-node session migrations started.", s.MigrationsStarted},
		{"migrations_completed_total", "Cross-node session migrations committed on the target.", s.MigrationsCompleted},
		{"migrations_aborted_total", "Cross-node session migrations aborted or refused.", s.MigrationsAborted},
		{"fence_rejections_total", "Mutating calls rejected by the session-lease write fence.", s.FenceRejections},
		{"lease_renewals_total", "Session-lease renewals piggybacked on served calls.", s.LeaseRenewals},
		{"recoveries_total", "Device-failure recoveries.", s.Recoveries},
		{"replays_total", "Kernels replayed during recovery.", s.Replays},
		{"device_failures_total", "Device failures observed.", s.DeviceFailures},
		{"offloaded_total", "Connections offloaded to a peer node.", s.Offloaded},
		{"unbind_retries_total", "Unbind attempts retried.", s.UnbindRetries},
		{"breaker_trips_total", "Circuit-breaker trips on peer links.", s.BreakerTrips},
		{"readmissions_total", "Offloaded connections readmitted locally.", s.Readmissions},
		{"retries_spent_total", "Retry-budget tokens spent.", s.RetriesSpent},
		{"sheds_total", "Connections shed by admission control.", s.Sheds},
	}
}

// writeMetrics renders the full exposition.
func writeMetrics(w io.Writer, s api.RuntimeStats) {
	for _, c := range statCounters(s) {
		name := "gvrt_" + c.name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, c.help, name, name, c.value)
	}

	fmt.Fprintf(w, "# HELP gvrt_gpu_seconds_total Model seconds of kernel execution across all contexts (the per-tenant conservation anchor).\n# TYPE gvrt_gpu_seconds_total counter\ngvrt_gpu_seconds_total %s\n",
		fmtFloat(float64(s.GPUTimeNS)/1e9))

	writeGauge(w, "gvrt_queue_depth", "Contexts waiting for a virtual GPU.", float64(s.QueueDepth))
	writeGauge(w, "gvrt_live_contexts", "Live application contexts.", float64(s.LiveContexts))
	writeGauge(w, "gvrt_dedup_saved_bytes", "Host bytes currently saved by swap deduplication.", float64(s.DedupSavedBytes))

	writeDeviceMetrics(w, s.Devices)
	writeTenantMetrics(w, s.Tenants)
	writeHistograms(w, s.Histograms)
}

// tenantMetric describes one per-tenant series.
type tenantMetric struct {
	name string
	help string
	typ  string
	val  func(api.TenantUsage) float64
}

// writeTenantMetrics renders the per-tenant attribution bundle as
// tenant-labeled series. Counter families end in _total; dedup savings
// are a gauge because reclaiming a saving (COW break, free) takes the
// value back down.
func writeTenantMetrics(w io.Writer, tenants map[string]api.TenantUsage) {
	if len(tenants) == 0 {
		return
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)

	metrics := []tenantMetric{
		{"gvrt_tenant_sessions", "Sessions currently admitted for the tenant.", "gauge",
			func(u api.TenantUsage) float64 { return float64(u.Sessions) }},
		{"gvrt_tenant_calls_total", "CUDA calls served for the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.Calls) }},
		{"gvrt_tenant_errors_total", "Calls that returned an error to the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.Errors) }},
		{"gvrt_tenant_launches_total", "Kernel launches completed for the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.Launches) }},
		{"gvrt_tenant_gpu_seconds_total", "Model seconds of GPU execution attributed to the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.GPUTimeNS) / 1e9 }},
		{"gvrt_tenant_queue_wait_seconds_total", "Model seconds the tenant's contexts spent queued for a vGPU.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.QueueWaitNS) / 1e9 }},
		{"gvrt_tenant_swap_bytes_total", "Swap-area bytes moved on behalf of the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.SwapBytes) }},
		{"gvrt_tenant_swap_ops_total", "Swap-area operations attributed to the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.SwapOps) }},
		{"gvrt_tenant_checkpoint_bytes_total", "Checkpoint bytes written for the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.CheckpointBytes) }},
		{"gvrt_tenant_migration_bytes_total", "Migration wire bytes shipped for the tenant.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.MigrationBytes) }},
		{"gvrt_tenant_dedup_saved_bytes", "Host bytes currently saved for the tenant by swap deduplication.", "gauge",
			func(u api.TenantUsage) float64 { return float64(u.DedupSavedBytes) }},
		{"gvrt_tenant_fence_rejections_total", "Tenant calls rejected by the session-lease write fence.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.FenceRejections) }},
		{"gvrt_tenant_quota_rejects_total", "Tenant admissions or allocations rejected by quota.", "counter",
			func(u api.TenantUsage) float64 { return float64(u.QuotaRejects) }},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, t := range names {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", m.name, t, fmtFloat(m.val(tenants[t])))
		}
	}

	fmt.Fprintf(w, "# HELP gvrt_tenant_launch_latency_seconds Per-tenant kernel launch service time (model seconds).\n# TYPE gvrt_tenant_launch_latency_seconds histogram\n")
	for _, t := range names {
		writeHist(w, "gvrt_tenant_launch_latency_seconds", fmt.Sprintf("tenant=%q,", t), tenants[t].Launch, 1e9)
	}
	fmt.Fprintf(w, "# HELP gvrt_tenant_queue_wait_seconds Per-tenant vGPU queue wait (model seconds).\n# TYPE gvrt_tenant_queue_wait_seconds histogram\n")
	for _, t := range names {
		writeHist(w, "gvrt_tenant_queue_wait_seconds", fmt.Sprintf("tenant=%q,", t), tenants[t].QueueWait, 1e9)
	}
}

// writeCtrlMetrics renders the control plane's operation counters,
// store counters, and the completed-operation duration histogram.
func writeCtrlMetrics(w io.Writer, m *ctrlplane.Manager) {
	oc := m.CountersSnapshot()
	st := m.Store().Stats()
	for _, c := range []counter{
		{"ctrl_ops_started_total", "Control-plane operations recorded.", oc.Started},
		{"ctrl_ops_completed_total", "Control-plane operations fully applied.", oc.Completed},
		{"ctrl_ops_resumed_total", "Interrupted operations resumed to completion at boot.", oc.Resumed},
		{"ctrl_ops_rolled_back_total", "Interrupted operations rolled back.", oc.RolledBack},
		{"ctrl_ops_stuck_total", "Operations quarantined awaiting operator cleanup.", oc.Stuck},
		{"ctrl_ops_cleaned_total", "Stuck operations force-rolled-back via the cleanup endpoint.", oc.Cleaned},
		{"ctrl_store_commits_total", "Control-plane store transactions committed.", st.Commits},
		{"ctrl_store_syncs_total", "Control-plane store fsync barriers.", st.Syncs},
		{"ctrl_store_compactions_total", "Control-plane store snapshot compactions.", st.Compactions},
		{"ctrl_store_quarantined_total", "Store records quarantined during recovery (payload CRC).", st.Quarantined},
	} {
		name := "gvrt_" + c.name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, c.help, name, name, c.value)
	}
	writeGauge(w, "gvrt_ctrl_store_keys", "Keys held in the control-plane store.", float64(st.Keys))
	writeGauge(w, "gvrt_ctrl_ops_pending", "Operations currently pending or stuck.", float64(len(m.Ops())))
	fmt.Fprintf(w, "# HELP gvrt_ctrl_op_duration_seconds Completed control-plane operation duration (seconds).\n# TYPE gvrt_ctrl_op_duration_seconds histogram\n")
	writeHist(w, "gvrt_ctrl_op_duration_seconds", "", m.OpDurations(), 1e9)
}

func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
}

// deviceMetric describes one per-device series.
type deviceMetric struct {
	name string
	help string
	typ  string
	val  func(api.DeviceStats) float64
}

func writeDeviceMetrics(w io.Writer, devs []api.DeviceStats) {
	if len(devs) == 0 {
		return
	}
	metrics := []deviceMetric{
		{"gvrt_device_healthy", "1 when the device is healthy, 0 after a failure.", "gauge",
			func(d api.DeviceStats) float64 {
				if d.Healthy {
					return 1
				}
				return 0
			}},
		{"gvrt_device_busy_seconds_total", "Model seconds the device spent executing.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.BusyNS) / 1e9 }},
		{"gvrt_device_launches_total", "Kernel launches executed on the device.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.Launches) }},
		{"gvrt_device_h2d_bytes_total", "Host-to-device bytes transferred.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.H2DBytes) }},
		{"gvrt_device_d2h_bytes_total", "Device-to-host bytes transferred.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.D2HBytes) }},
		{"gvrt_device_active_vgpus", "Virtual GPUs currently bound to a context.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.ActiveVGPUs) }},
		{"gvrt_device_vgpus", "Virtual GPUs configured on the device.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.VGPUs) }},
		{"gvrt_device_mem_available_bytes", "Device memory currently available.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.MemAvailable) }},
		{"gvrt_device_capacity_bytes", "Device memory capacity.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.Capacity) }},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, d := range devs {
			fmt.Fprintf(w, "%s{device=%q,model=%q} %s\n",
				m.name, strconv.Itoa(d.Index), d.Name, fmtFloat(m.val(d)))
		}
	}
}

// histMeta maps a snapshot key to its exposition name, help text and
// unit scale (raw value units per exposed unit: 1e9 for ns→seconds,
// 1 for bytes).
type histMeta struct {
	metric string
	help   string
	scale  float64
}

func histInfo(key string) histMeta {
	switch key {
	case "launch_latency":
		return histMeta{"gvrt_launch_latency_seconds", "End-to-end kernel launch service time (model seconds).", 1e9}
	case "queue_wait":
		return histMeta{"gvrt_queue_wait_seconds", "Time parked waiting for a free virtual GPU (model seconds).", 1e9}
	case "bind_wait":
		return histMeta{"gvrt_bind_wait_seconds", "Time from first bind attempt to bound (model seconds).", 1e9}
	case "swap_duration":
		return histMeta{"gvrt_swap_duration_seconds", "Per-swap-operation duration (model seconds).", 1e9}
	case "swap_bytes":
		return histMeta{"gvrt_swap_size_bytes", "Per-swap-operation size (bytes).", 1}
	case "h2d":
		return histMeta{"gvrt_h2d_transfer_seconds", "Per-transfer host-to-device copy duration (model seconds).", 1e9}
	case "d2h":
		return histMeta{"gvrt_d2h_transfer_seconds", "Per-transfer device-to-host copy duration (model seconds).", 1e9}
	case "journal_commit_wall":
		return histMeta{"gvrt_journal_commit_wall_seconds", "Durable kernel commit cost (WALL seconds, dominated by fsync).", 1e9}
	case "peer_call":
		return histMeta{"gvrt_peer_call_seconds", "Peer RPC round-trip time (model seconds).", 1e9}
	case "migration_duration":
		return histMeta{"gvrt_migration_duration_seconds", "Cross-node session migration duration (model seconds).", 1e9}
	case "migration_bytes":
		return histMeta{"gvrt_migration_size_bytes", "Wire bytes actually shipped per cross-node migration (after dedup/resume exclusion).", 1}
	case "dedup_saved":
		return histMeta{"gvrt_dedup_seal_saved_bytes", "Bytes saved per swap-image seal by chunk deduplication (bytes).", 1}
	case "prefetch":
		return histMeta{"gvrt_prefetch_seconds", "Predictive swap-in prefetch duration (model seconds).", 1e9}
	default:
		// Unknown future keys still expose, as sanitized model-second
		// histograms, so adding a histogram never silently drops data.
		name := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				return r
			default:
				return '_'
			}
		}, key)
		return histMeta{"gvrt_" + name + "_seconds", "Runtime histogram " + key + " (model seconds).", 1e9}
	}
}

// writeHistograms renders every histogram in the snapshot. Per-call
// histograms ("call.<kind>" keys) are folded into one
// gvrt_call_duration_seconds family with a kind label.
func writeHistograms(w io.Writer, hists map[string]trace.HistSnapshot) {
	if len(hists) == 0 {
		return
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	callHeader := false
	for _, k := range keys {
		kind, isCall := strings.CutPrefix(k, "call.")
		if !isCall {
			continue
		}
		if !callHeader {
			fmt.Fprintf(w, "# HELP gvrt_call_duration_seconds Service time per CUDA call kind (model seconds).\n# TYPE gvrt_call_duration_seconds histogram\n")
			callHeader = true
		}
		writeHist(w, "gvrt_call_duration_seconds", fmt.Sprintf("kind=%q,", kind), hists[k], 1e9)
	}
	for _, k := range keys {
		if strings.HasPrefix(k, "call.") {
			continue
		}
		m := histInfo(k)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", m.metric, m.help, m.metric)
		writeHist(w, m.metric, "", hists[k], m.scale)
	}
}

// writeHist renders one histogram's _bucket/_sum/_count series.
// extraLabels is either empty or a "k=\"v\"," prefix.
func writeHist(w io.Writer, name, extraLabels string, s trace.HistSnapshot, scale float64) {
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
			name, extraLabels, fmtFloat(float64(trace.BucketBound(i))/scale), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabels, s.Count)
	var labels string
	if extraLabels != "" {
		labels = "{" + strings.TrimSuffix(extraLabels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(float64(s.Sum)/scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// fmtFloat renders a float the way Prometheus expects: shortest
// round-trip representation, integers without a decimal point.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
