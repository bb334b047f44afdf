// Package opserver is the HTTP operator plane of a gvrt daemon: a
// small handler serving Prometheus text-format metrics (/metrics), a
// human-readable node status page (/statusz), the slowest recent spans
// (/tracez), a Perfetto-loadable Chrome trace-event export
// (/trace.json), and the Go profiler (/debug/pprof). It reads only
// snapshot APIs — the runtime's Metrics snapshot and the trace
// recorder — so scraping never contends with the dispatch path beyond
// what a StatsCall already costs.
package opserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/obs"
	"gvrt/internal/trace"
)

// Source is the slice of a runtime the operator plane reads. Stats is
// required; the rest degrade gracefully (nil Trace serves empty
// /tracez and /trace.json, nil Now omits model uptime, nil Ctrl omits
// the control-plane REST resources).
type Source struct {
	// Stats returns the node's metrics snapshot (Runtime.Metrics).
	Stats func() api.RuntimeStats
	// Trace is the node's trace recorder; nil when tracing is off.
	Trace *trace.Recorder
	// Now is the model clock, used for uptime and the trace export.
	Now func() time.Duration
	// Name labels the process in trace exports (default "gvrtd").
	Name string
	// Ctrl is the node's control plane; when set, its REST resources
	// (/tenants, /quotas, /devices, /ops, /events) are mounted and
	// /healthz includes store health.
	Ctrl *ctrlplane.Manager
	// JournalHealthy reports whether the checkpoint journal can still
	// persist commits; nil means "no journal attached" (healthy).
	JournalHealthy func() bool
	// Fleet, when set (head nodes), enables /metrics?scope=cluster and
	// /cluster: the fleet-wide merge of every reachable peer's snapshot.
	Fleet *obs.Collector
	// SLO, when set, serves per-tenant burn-rate status at /slo.
	SLO *obs.SLOEngine
}

// Handler builds the operator-plane HTTP handler.
func Handler(src Source) http.Handler {
	if src.Name == "" {
		src.Name = "gvrtd"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "gvrt operator plane (%s)\n\n", src.Name)
		fmt.Fprintln(w, "  /metrics      Prometheus text exposition (?scope=cluster on head nodes)")
		fmt.Fprintln(w, "  /tenants/{t}/usage  per-tenant attribution snapshot (JSON)")
		fmt.Fprintln(w, "  /slo          per-tenant SLO burn-rate status (JSON)")
		fmt.Fprintln(w, "  /cluster      fleet-wide merged snapshot (JSON, head nodes)")
		fmt.Fprintln(w, "  /statusz      node status: devices, queue, counters")
		fmt.Fprintln(w, "  /tracez       slowest recent spans (?n=100)")
		fmt.Fprintln(w, "  /trace.json   Chrome trace-event export (load in Perfetto)")
		fmt.Fprintln(w, "  /healthz      readiness probe (JSON)")
		fmt.Fprintln(w, "  /debug/pprof  Go profiler")
		if src.Ctrl != nil {
			fmt.Fprintln(w, "\ncontrol plane:")
			fmt.Fprintln(w, "  /tenants      tenant registry (GET list, POST create, DELETE one)")
			fmt.Fprintln(w, "  /quotas       tenant quotas (GET list, PUT /quotas/{tenant})")
			fmt.Fprintln(w, "  /devices      device membership (POST /devices/{id}/drain|readmit)")
			fmt.Fprintln(w, "  /slos         tenant SLO records (PUT /slos/{tenant})")
			fmt.Fprintln(w, "  /ops          pending/stuck operations (POST /ops/cleanup)")
			fmt.Fprintln(w, "  /events       SSE stream of store commits and SLO burn events")
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeHealthz(w, src)
	})
	if src.Ctrl != nil {
		rest := ctrlplane.RESTHandler(src.Ctrl)
		for _, p := range []string{"/tenants", "/tenants/", "/quotas", "/quotas/",
			"/devices", "/devices/", "/slos", "/slos/", "/ops", "/ops/", "/events"} {
			mux.Handle(p, rest)
		}
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if r.URL.Query().Get("scope") == "cluster" {
			if src.Fleet == nil {
				http.Error(w, "no fleet collector on this node", http.StatusNotFound)
				return
			}
			cs := src.Fleet.Collect()
			writeGauge(w, "gvrt_cluster_nodes", "Nodes whose snapshot is folded into this exposition.", float64(len(cs.Nodes)))
			writeGauge(w, "gvrt_cluster_nodes_unreachable", "Nodes that failed to answer the stats pull.", float64(len(cs.Unreachable)))
			writeMetrics(w, cs.Merged)
			return
		}
		writeMetrics(w, src.Stats())
		if src.Ctrl != nil {
			writeCtrlMetrics(w, src.Ctrl)
		}
	})
	// Registered with an explicit method + trailing segment so it wins
	// over the control plane's /tenants/ prefix mount above.
	mux.HandleFunc("GET /tenants/{tenant}/usage", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		var u api.TenantUsage
		var ok bool
		if r.URL.Query().Get("scope") == "cluster" && src.Fleet != nil {
			u, ok = src.Fleet.Collect().Merged.Tenants[name]
		} else {
			u, ok = src.Stats().Tenants[name]
		}
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no usage recorded for tenant " + name})
			return
		}
		json.NewEncoder(w).Encode(u)
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if src.SLO == nil {
			json.NewEncoder(w).Encode([]any{})
			return
		}
		st := src.SLO.Status()
		if st == nil {
			st = []obs.SLOStatus{}
		}
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		if src.Fleet == nil {
			http.Error(w, "no fleet collector on this node", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(src.Fleet.Collect())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeStatusz(w, src)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeTracez(w, src, r.URL.Query().Get("n"))
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		proc := trace.ChromeProcess{Name: src.Name}
		if src.Trace != nil {
			proc.Spans = src.Trace.Spans()
			proc.Events = src.Trace.Snapshot()
		}
		if err := trace.WriteChromeTrace(w, proc); err != nil {
			// Headers are gone; the truncated body is the best signal left.
			return
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeHealthz answers the readiness probe: 200 with a JSON summary
// when the node can take work — control-plane store committing (when
// one is attached), checkpoint journal writable (when attached), and
// at least one healthy device — 503 otherwise. Load balancers and the
// CI smoke jobs key off the status code; the body says which leg failed.
func writeHealthz(w http.ResponseWriter, src Source) {
	s := src.Stats()
	healthyDevs := 0
	for _, d := range s.Devices {
		if d.Healthy {
			healthyDevs++
		}
	}
	storeOK := true
	if src.Ctrl != nil {
		storeOK = src.Ctrl.Store().Healthy()
	}
	journalOK := src.JournalHealthy == nil || src.JournalHealthy()
	ready := storeOK && journalOK && healthyDevs > 0

	resp := map[string]any{
		"ready":           ready,
		"store_ok":        storeOK,
		"journal_ok":      journalOK,
		"devices_healthy": healthyDevs,
		"devices_total":   len(s.Devices),
	}
	if src.Ctrl != nil {
		resp["pending_ops"] = len(src.Ctrl.Ops())
	}
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// writeStatusz renders the human status page.
func writeStatusz(w http.ResponseWriter, src Source) {
	s := src.Stats()
	fmt.Fprintf(w, "gvrt node status (%s)\n", src.Name)
	if src.Now != nil {
		fmt.Fprintf(w, "model time:    %v\n", src.Now())
	}
	fmt.Fprintf(w, "queue depth:   %d\n", s.QueueDepth)
	fmt.Fprintf(w, "live contexts: %d\n\n", s.LiveContexts)

	fmt.Fprintln(w, "devices:")
	fmt.Fprintf(w, "  %-3s %-12s %-9s %5s/%-5s %9s %10s %12s %12s\n",
		"idx", "model", "state", "vgpu", "cap", "launches", "busy", "mem avail", "capacity")
	for _, d := range s.Devices {
		state := "healthy"
		if !d.Healthy {
			state = "FAILED"
		}
		fmt.Fprintf(w, "  %-3d %-12s %-9s %5d/%-5d %9d %10v %12d %12d\n",
			d.Index, d.Name, state, d.ActiveVGPUs, d.VGPUs,
			d.Launches, time.Duration(d.BusyNS).Round(time.Millisecond),
			d.MemAvailable, d.Capacity)
	}

	fmt.Fprintln(w, "\ncounters:")
	v := reflect.ValueOf(s)
	for _, c := range seriesOf(v.Type(), "") {
		fmt.Fprintf(w, "  %-28s %s\n", c.name, c.value(v.FieldByIndex(c.index)))
	}

	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "\nhistograms (model time unless noted, B = bytes):")
		fmt.Fprintf(w, "  %-26s %9s %12s %12s %12s\n", "histogram", "count", "p50", "p99", "mean")
		for _, k := range trace.SortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(w, "  %-26s %9d %12s %12s %12s\n", k, h.Count,
				trace.FormatValue(k, h.Quantile(0.5)), trace.FormatValue(k, h.Quantile(0.99)),
				trace.FormatValue(k, int64(h.Mean())))
		}
	}
	if src.Trace != nil {
		fmt.Fprintf(w, "\nspans recorded: %d (retained %d)\n",
			src.Trace.SpanTotal(), len(src.Trace.Spans()))
	}
}

// writeTracez renders the slowest retained spans, one per line.
func writeTracez(w http.ResponseWriter, src Source, nParam string) {
	n := 100
	if v, err := strconv.Atoi(nParam); err == nil && v > 0 {
		n = v
	}
	if src.Trace == nil {
		fmt.Fprintln(w, "tracing off (runtime built without a trace recorder)")
		return
	}
	spans := src.Trace.SlowestSpans(n)
	fmt.Fprintf(w, "slowest %d of %d retained spans (%d recorded)\n\n",
		len(spans), len(src.Trace.Spans()), src.Trace.SpanTotal())
	fmt.Fprintf(w, "%12s %10s %-16s\n", "start", "dur", "phase")
	for _, s := range spans {
		fmt.Fprintln(w, s.String())
	}
}
