package opserver

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"gvrt/internal/api"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/trace"
)

// This file renders a RuntimeStats snapshot as Prometheus text
// exposition format (version 0.0.4). Node, device and tenant series
// come from the stats structs' metric tags (internal/api); histogram
// families from trace.Families. The runtime's log2 histograms map
// directly onto Prometheus histograms: bucket i's upper bound is 2^i
// nanoseconds, exposed in seconds, with the trimmed tail folded into
// +Inf.

// series is one numeric stats field as its metric tag declares it.
type series struct {
	name, typ, help string
	scale           float64
	index           []int
}

// seriesOf lists the tagged fields of a stats struct type in
// declaration order, embedded structs included; prefix leads every
// exposition name.
func seriesOf(t reflect.Type, prefix string) []series {
	var out []series
	for _, f := range reflect.VisibleFields(t) {
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		spec, help, _ := strings.Cut(tag, " ")
		opts := strings.Split(spec, ",")
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		s := series{typ: opts[0], help: help, scale: 1, index: f.Index}
		for _, o := range opts[1:] {
			if o == "ns" {
				s.scale = 1e9
			} else {
				name = o
			}
		}
		s.name = prefix + name
		if s.typ == "counter" {
			s.name += "_total"
		}
		out = append(out, s)
	}
	return out
}

// value renders one scalar sample: integers exactly, scaled values as
// floats, booleans as 1 or 0.
func (s series) value(v reflect.Value) string {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return "1"
		}
		return "0"
	case s.scale != 1:
		return fmtFloat(float64(v.Int()) / s.scale)
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10)
	default:
		return strconv.FormatInt(v.Int(), 10)
	}
}

// row is one labelled instance of a stats struct: the node snapshot,
// a device or a tenant. labels is empty or `k="v",` pairs.
type row struct {
	labels string
	v      reflect.Value
}

// writeSeries renders every series of the rows' struct type as one
// family with a sample per row.
func writeSeries(w io.Writer, prefix string, rows []row) {
	if len(rows) == 0 {
		return
	}
	for _, s := range seriesOf(rows[0].v.Type(), prefix) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
		for _, r := range rows {
			f := r.v.FieldByIndex(s.index)
			if h, ok := f.Interface().(trace.HistSnapshot); ok {
				writeHist(w, s.name, r.labels, h, s.scale)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", s.name, braced(r.labels), s.value(f))
		}
	}
}

// writeMetrics renders the full exposition.
func writeMetrics(w io.Writer, s api.RuntimeStats) {
	writeSeries(w, "gvrt_", []row{{v: reflect.ValueOf(s)}})
	devs := make([]row, len(s.Devices))
	for i, d := range s.Devices {
		devs[i] = row{fmt.Sprintf("device=%q,model=%q,", strconv.Itoa(d.Index), d.Name), reflect.ValueOf(d)}
	}
	writeSeries(w, "gvrt_device_", devs)
	tenants := make([]row, 0, len(s.Tenants))
	for t, u := range s.Tenants {
		tenants = append(tenants, row{fmt.Sprintf("tenant=%q,", t), reflect.ValueOf(u)})
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].labels < tenants[j].labels })
	writeSeries(w, "gvrt_tenant_", tenants)
	writeHistograms(w, s.Histograms)
}

// counter pairs a metric name with a monotonic value.
type counter struct {
	name  string
	help  string
	value int64
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

// writeHistograms renders every histogram in the snapshot. Per-call
// histograms ("call.<kind>" keys) fold into one family with a kind
// label; keys no family declares are not exposed.
func writeHistograms(w io.Writer, hists map[string]trace.HistSnapshot) {
	call := trace.CallFamily
	header := false
	for _, k := range trace.SortedKeys(hists) {
		kind, ok := strings.CutPrefix(k, call.Key)
		if !ok {
			continue
		}
		if !header {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", call.Metric, call.Help, call.Metric)
			header = true
		}
		writeHist(w, call.Metric, fmt.Sprintf("kind=%q,", kind), hists[k], call.Scale())
	}
	for _, f := range trace.Families {
		if h, ok := hists[f.Key]; ok {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.Metric, f.Help, f.Metric)
			writeHist(w, f.Metric, "", h, f.Scale())
		}
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
	labels := braced(extraLabels)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(float64(s.Sum)/scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// braced turns a `k="v",` label prefix into a label set, "" for none.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(labels, ",") + "}"
}

// fmtFloat renders a float the way Prometheus expects: shortest
// round-trip representation, integers without a decimal point.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
