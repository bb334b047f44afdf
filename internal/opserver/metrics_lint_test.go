package opserver

// Exposition hygiene tests: a promlint-style naming/typing pass over
// the live /metrics output, and a golden metric inventory so renaming
// or adding a series is always a reviewed, deliberate act. If
// TestMetricsGoldenInventory fails after an intentional change, update
// goldenFamilies below — that diff IS the review surface.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gvrt/internal/api"
)

// family is one parsed metric family from the exposition.
type family struct {
	name    string
	typ     string // counter | gauge | histogram
	help    string
	samples int
}

// parseExposition groups a text exposition into families, folding
// histogram _bucket/_sum/_count series onto their base name. It fails
// the test on structurally malformed lines (sample before TYPE,
// unknown suffix for the declared type).
func parseExposition(t *testing.T, body string) map[string]*family {
	t.Helper()
	fams := map[string]*family{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			f := fams[name]
			if f == nil {
				f = &family{name: name}
				fams[name] = f
			}
			f.help = help
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			f := fams[fields[0]]
			if f == nil {
				f = &family{name: fields[0]}
				fams[fields[0]] = f
			}
			if f.typ != "" {
				t.Errorf("family %s has two # TYPE lines", fields[0])
			}
			f.typ = fields[1]
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, suf)
				if trimmed != name && fams[trimmed] != nil && fams[trimmed].typ == "histogram" {
					base = trimmed
					break
				}
			}
			f := fams[base]
			if f == nil || f.typ == "" || f.help == "" {
				t.Errorf("sample %q appears before its # HELP/# TYPE header", name)
				continue
			}
			f.samples++
		}
	}
	return fams
}

// scrapeFamilies runs the standard test workload and parses /metrics.
func scrapeFamilies(t *testing.T) map[string]*family {
	t.Helper()
	h, _ := newNode(t)
	return parseExposition(t, get(t, h, "/metrics").Body.String())
}

// TestMetricsPromlint enforces the naming rules promtool's lint
// applies: counters end in _total, gauges and histograms do not,
// units are base units (seconds/bytes, never ms/ns/kb in the name),
// names are lowercase snake_case under the gvrt_ namespace, and every
// family carries help text ending in a period.
func TestMetricsPromlint(t *testing.T) {
	fams := scrapeFamilies(t)
	if len(fams) == 0 {
		t.Fatal("no metric families parsed")
	}
	for name, f := range fams {
		if !strings.HasPrefix(name, "gvrt_") {
			t.Errorf("%s: outside the gvrt_ namespace", name)
		}
		if strings.ToLower(name) != name || strings.Contains(name, "__") {
			t.Errorf("%s: not lowercase snake_case", name)
		}
		for _, bad := range []string{"_ns", "_nanoseconds", "_ms", "_milliseconds", "_micros", "_kb", "_mb", "_gb"} {
			if strings.HasSuffix(name, bad) || strings.Contains(name, bad+"_") {
				t.Errorf("%s: non-base unit %q in metric name", name, bad)
			}
		}
		switch f.typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("%s: counter without _total suffix", name)
			}
		case "gauge", "histogram":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("%s: %s must not end in _total", name, f.typ)
			}
		default:
			t.Errorf("%s: unknown or missing TYPE %q", name, f.typ)
		}
		if f.help == "" {
			t.Errorf("%s: missing # HELP", name)
		} else if !strings.HasSuffix(f.help, ".") {
			t.Errorf("%s: help text %q does not end with a period", name, f.help)
		}
		if f.samples == 0 {
			t.Errorf("%s: declared but has no samples", name)
		}
	}
}

// goldenFamilies is the full metric inventory: every family the node
// exposition may contain. "required" families must be present for the
// standard test workload (tenant joined, launches run); the rest are
// data-dependent histograms that appear once their subsystem observes
// a value.
var goldenFamilies = map[string]bool{ // name -> required
	// Node counters (api.RuntimeStats field order).
	"gvrt_calls_served_total":         true,
	"gvrt_binds_total":                true,
	"gvrt_inter_app_swaps_total":      true,
	"gvrt_intra_app_swaps_total":      true,
	"gvrt_swap_ops_total":             true,
	"gvrt_swap_bytes_total":           true,
	"gvrt_checkpoint_bytes_total":     true,
	"gvrt_coalesced_writes_total":     true,
	"gvrt_bad_ops_rejected_total":     true,
	"gvrt_checkpoints_total":          true,
	"gvrt_prefetch_hits_total":        true,
	"gvrt_migrations_total":           true,
	"gvrt_migrations_started_total":   true,
	"gvrt_migrations_completed_total": true,
	"gvrt_migrations_aborted_total":   true,
	"gvrt_fence_rejections_total":     true,
	"gvrt_lease_renewals_total":       true,
	"gvrt_recoveries_total":           true,
	"gvrt_replays_total":              true,
	"gvrt_device_failures_total":      true,
	"gvrt_offloaded_total":            true,
	"gvrt_unbind_retries_total":       true,
	"gvrt_breaker_trips_total":        true,
	"gvrt_readmissions_total":         true,
	"gvrt_retries_spent_total":        true,
	"gvrt_sheds_total":                true,
	"gvrt_gpu_seconds_total":          true,
	// Node gauges.
	"gvrt_queue_depth":       true,
	"gvrt_live_contexts":     true,
	"gvrt_host_bytes_in_use": true,
	// Per-device series.
	"gvrt_device_healthy":             true,
	"gvrt_device_busy_seconds_total":  true,
	"gvrt_device_launches_total":      true,
	"gvrt_device_h2d_bytes_total":     true,
	"gvrt_device_d2h_bytes_total":     true,
	"gvrt_device_active_vgpus":        true,
	"gvrt_device_vgpus":               true,
	"gvrt_device_mem_available_bytes": true,
	"gvrt_device_capacity_bytes":      true,
	// Per-tenant attribution series.
	"gvrt_tenant_sessions":                 true,
	"gvrt_tenant_calls_total":              true,
	"gvrt_tenant_errors_total":             true,
	"gvrt_tenant_launches_total":           true,
	"gvrt_tenant_gpu_seconds_total":        true,
	"gvrt_tenant_queue_wait_seconds_total": true,
	"gvrt_tenant_swap_bytes_total":         true,
	"gvrt_tenant_swap_ops_total":           true,
	"gvrt_tenant_checkpoint_bytes_total":   true,
	"gvrt_tenant_migration_bytes_total":    true,
	"gvrt_tenant_fence_rejections_total":   true,
	"gvrt_tenant_quota_rejects_total":      true,
	"gvrt_tenant_launch_latency_seconds":   true,
	"gvrt_tenant_queue_wait_seconds":       true,
	// Runtime histograms (appear when observed; launch/call always do
	// under the standard workload).
	"gvrt_launch_latency_seconds":      true,
	"gvrt_call_duration_seconds":       true,
	"gvrt_queue_wait_seconds":          false,
	"gvrt_bind_wait_seconds":           false,
	"gvrt_swap_duration_seconds":       false,
	"gvrt_swap_size_bytes":             false,
	"gvrt_h2d_transfer_seconds":        false,
	"gvrt_d2h_transfer_seconds":        false,
	"gvrt_journal_commit_wall_seconds": false,
	"gvrt_peer_call_seconds":           false,
	"gvrt_dedup_seal_saved_bytes":      false,
	"gvrt_migration_duration_seconds":  false,
	"gvrt_migration_size_bytes":        false,
	// Control-plane series (Ctrl attached) and cluster-scope gauges
	// (head nodes); not emitted by the bare test node.
	"gvrt_ctrl_ops_started_total":       false,
	"gvrt_ctrl_ops_completed_total":     false,
	"gvrt_ctrl_ops_resumed_total":       false,
	"gvrt_ctrl_ops_rolled_back_total":   false,
	"gvrt_ctrl_ops_stuck_total":         false,
	"gvrt_ctrl_ops_cleaned_total":       false,
	"gvrt_ctrl_store_commits_total":     false,
	"gvrt_ctrl_store_syncs_total":       false,
	"gvrt_ctrl_store_compactions_total": false,
	"gvrt_ctrl_store_quarantined_total": false,
	"gvrt_ctrl_store_keys":              false,
	"gvrt_ctrl_ops_pending":             false,
	"gvrt_ctrl_op_duration_seconds":     false,
	"gvrt_cluster_nodes":                false,
	"gvrt_cluster_nodes_unreachable":    false,
}

func TestMetricsGoldenInventory(t *testing.T) {
	fams := scrapeFamilies(t)

	var unknown, missing []string
	for name := range fams {
		if _, ok := goldenFamilies[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	for name, required := range goldenFamilies {
		if required && fams[name] == nil {
			missing = append(missing, name)
		}
	}
	sort.Strings(unknown)
	sort.Strings(missing)
	if len(unknown) > 0 {
		t.Errorf("families not in the golden inventory (new metric? add it to goldenFamilies in %s):\n  %s",
			"metrics_lint_test.go", strings.Join(unknown, "\n  "))
	}
	if len(missing) > 0 {
		t.Errorf("required golden families missing from the exposition (renamed or dropped?):\n  %s",
			strings.Join(missing, "\n  "))
	}
	if t.Failed() {
		var got []string
		for name := range fams {
			got = append(got, fmt.Sprintf("%s (%s)", name, fams[name].typ))
		}
		sort.Strings(got)
		t.Logf("exposition families:\n  %s", strings.Join(got, "\n  "))
	}
}

// TestEveryStatsFieldIsExposed walks the integer fields of
// api.RuntimeStats (embedded structs included), api.TenantUsage and
// api.DeviceStats, and fails when setting one leaves the exposition
// unchanged: a field in the snapshot (and summed by obs.MergeStats)
// without a family is invisible to operators.
func TestEveryStatsFieldIsExposed(t *testing.T) {
	check := func(typ reflect.Type, snapshot func(reflect.Value) api.RuntimeStats) {
		render := func(v reflect.Value) string {
			var b bytes.Buffer
			writeMetrics(&b, snapshot(v))
			return b.String()
		}
		zero := render(reflect.New(typ).Elem())
		for _, f := range reflect.VisibleFields(typ) {
			v := reflect.New(typ).Elem()
			switch fv := v.FieldByIndex(f.Index); {
			case fv.CanInt():
				fv.SetInt(7e9)
			case fv.CanUint():
				fv.SetUint(7e9)
			default:
				continue
			}
			if render(v) == zero {
				t.Errorf("%s.%s (%s) has no family on /metrics", typ.Name(), f.Name, f.Tag.Get("json"))
			}
		}
	}
	check(reflect.TypeOf(api.RuntimeStats{}), func(v reflect.Value) api.RuntimeStats {
		return v.Interface().(api.RuntimeStats)
	})
	check(reflect.TypeOf(api.TenantUsage{}), func(v reflect.Value) api.RuntimeStats {
		return api.RuntimeStats{Tenants: map[string]api.TenantUsage{"t": v.Interface().(api.TenantUsage)}}
	})
	check(reflect.TypeOf(api.DeviceStats{}), func(v reflect.Value) api.RuntimeStats {
		return api.RuntimeStats{Devices: []api.DeviceStats{v.Interface().(api.DeviceStats)}}
	})
}
