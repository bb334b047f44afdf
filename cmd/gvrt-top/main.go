// Command gvrt-top is a terminal dashboard for a gvrtd daemon: it
// polls the daemon's metrics snapshot (the same StatsCall a cluster
// scheduler would use) and renders per-device utilization, swap and
// launch rates, and interval latency percentiles computed from the
// runtime's histogram deltas.
//
// Usage:
//
//	gvrt-top -addr localhost:7070                 # refresh every 2s
//	gvrt-top -addr localhost:7070 -interval 500ms
//	gvrt-top -addr localhost:7070 -once           # one snapshot, no TUI
//	gvrt-top -addr localhost:7070 -count 10       # ten frames, then exit
//
// Rates and percentiles are computed over the polling interval, so a
// burst of launches shows up as a p99 spike in the frame it happened,
// not averaged away since daemon boot.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/obs"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7070", "gvrtd daemon address")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval (wall time)")
		once     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
		count    = flag.Int("count", 0, "exit after this many frames (0 = run until interrupted)")
		events   = flag.String("events", "", "operator-plane base URL (e.g. http://localhost:8080): watch its /events stream and refresh the instant the control plane commits a change, instead of waiting out the interval")
		cl       = flag.String("cluster", "", "fleet mode: poll this operator-plane base URL's /cluster rollup (a gvrtd with -fleet) and render per-node and per-tenant views instead of one daemon's devices")
	)
	flag.Parse()

	if *cl != "" {
		runCluster(strings.TrimRight(*cl, "/"), *interval, *once, *count)
		return
	}

	conn, err := transport.Dial(*addr)
	if err != nil {
		log.Fatalf("gvrt-top: %v", err)
	}
	c := frontend.Connect(conn)
	defer c.Close()

	// Control-plane reactivity: store commits arrive on evCh and cut the
	// sleep short, so a tenant/quota/drain change redraws immediately.
	var evCh chan string
	if *events != "" {
		evCh = make(chan string, 16)
		go watchEvents(strings.TrimRight(*events, "/")+"/events", evCh)
	}

	var prev api.RuntimeStats
	havePrev := false
	frames := 0
	lastEvent := ""
	for {
		st, err := c.Stats()
		if err != nil {
			log.Fatalf("gvrt-top: stats: %v", err)
		}
		frame := render(*addr, st, prev, havePrev, *interval)
		if !*once {
			// ANSI home + clear-below keeps the frame flicker-free.
			fmt.Print("\x1b[H\x1b[2J")
		}
		os.Stdout.WriteString(frame)
		if lastEvent != "" {
			fmt.Printf("\nctrl: %s\n", lastEvent)
		}
		prev, havePrev = st, true
		frames++
		if *once || (*count > 0 && frames >= *count) {
			return
		}
		if evCh == nil {
			time.Sleep(*interval)
			continue
		}
		select {
		case ev := <-evCh:
			// Coalesce a burst of commits into one redraw.
			lastEvent = drainEvents(evCh, ev)
		case <-time.After(*interval):
		}
	}
}

// runCluster is the fleet dashboard loop: poll base/cluster (and
// base/slo for burn-rate rows), render per-node and per-tenant rollups
// with interval rates from the previous frame.
func runCluster(base string, interval time.Duration, once bool, count int) {
	var prev obs.ClusterStats
	havePrev := false
	frames := 0
	for {
		cs, err := fetchCluster(base)
		if err != nil {
			log.Fatalf("gvrt-top: %s/cluster: %v", base, err)
		}
		slo, _ := fetchSLO(base) // absent SLO engine is not an error
		frame := renderCluster(base, cs, prev, havePrev, slo, interval)
		if !once {
			fmt.Print("\x1b[H\x1b[2J")
		}
		os.Stdout.WriteString(frame)
		prev, havePrev = cs, true
		frames++
		if once || (count > 0 && frames >= count) {
			return
		}
		time.Sleep(interval)
	}
}

// fetchCluster pulls one fleet rollup from the operator plane.
func fetchCluster(base string) (obs.ClusterStats, error) {
	var cs obs.ClusterStats
	resp, err := http.Get(base + "/cluster")
	if err != nil {
		return cs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cs, fmt.Errorf("status %s (is the daemon running with -fleet?)", resp.Status)
	}
	return cs, json.NewDecoder(resp.Body).Decode(&cs)
}

// fetchSLO pulls the evaluated SLO status rows, if the daemon runs an
// engine (-store): an empty slice otherwise.
func fetchSLO(base string) ([]obs.SLOStatus, error) {
	resp, err := http.Get(base + "/slo")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var rows []obs.SLOStatus
	return rows, json.NewDecoder(resp.Body).Decode(&rows)
}

// renderCluster draws one fleet frame: node rows, merged tenant rows
// with interval rates, and any evaluated SLO status. Pure function of
// two snapshots, like render.
func renderCluster(base string, cs, prev obs.ClusterStats, havePrev bool, slo []obs.SLOStatus, interval time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gvrt-top — cluster via %s — %s\n\n", base, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "nodes: %d reachable, %d unreachable\n", len(cs.Nodes), len(cs.Unreachable))
	for name, why := range cs.Unreachable {
		fmt.Fprintf(&b, "  UNREACHABLE %s: %s\n", name, why)
	}
	m := cs.Merged
	fmt.Fprintf(&b, "merged: calls %d  contexts %d  swaps %d  swap %dMB  gpu %.2fs  migrations %d  sheds %d\n",
		m.CallsServed, m.LiveContexts, m.SwapOps, m.SwapBytes>>20,
		float64(m.GPUTimeNS)/1e9, m.Migrations, m.Sheds)

	b.WriteString("\nNODE             CALLS   LAUNCH    GPU s  SWAP MB  QUEUE  CTX\n")
	for _, name := range cs.NodeNames() {
		ns := cs.Nodes[name]
		fmt.Fprintf(&b, "%-14s %7d %8d %8.2f %8d %6d %4d\n",
			name, ns.CallsServed, launches(ns), float64(ns.GPUTimeNS)/1e9,
			ns.SwapBytes>>20, ns.QueueDepth, ns.LiveContexts)
	}

	if len(m.Tenants) > 0 {
		b.WriteString("\nTENANT           SESS   CALLS   LAUNCH    GPU s  SWAP MB  LAUNCH p99")
		if havePrev {
			b.WriteString("   Δcalls/s  Δp99")
		}
		b.WriteByte('\n')
		names := make([]string, 0, len(m.Tenants))
		for t := range m.Tenants {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			u := m.Tenants[t]
			fmt.Fprintf(&b, "%-14s %6d %7d %8d %8.2f %8d %11s",
				t, u.Sessions, u.Calls, u.Launches, float64(u.GPUTimeNS)/1e9,
				u.SwapBytes>>20, time.Duration(u.Launch.Quantile(0.99)).String())
			if havePrev {
				pu := prev.Merged.Tenants[t]
				secs := interval.Seconds()
				if secs <= 0 {
					secs = 1
				}
				d := u.Launch.Delta(pu.Launch)
				dp99 := "-"
				if d.Count > 0 {
					dp99 = time.Duration(d.Quantile(0.99)).String()
				}
				fmt.Fprintf(&b, "   %8.1f %6s", float64(u.Calls-pu.Calls)/secs, dp99)
			}
			b.WriteByte('\n')
		}
	}

	if len(slo) > 0 {
		b.WriteString("\nSLO              KIND        OBJECTIVE  SHORT-BURN  LONG-BURN  STATE\n")
		for _, s := range slo {
			objective := fmt.Sprintf("%.4g", s.Objective)
			if s.Kind == "launch_p99" {
				objective = time.Duration(int64(s.Objective)).String()
			}
			state := "ok"
			if s.Breaching {
				state = "BREACHING"
			}
			fmt.Fprintf(&b, "%-14s %-14s %9s %11.2f %10.2f  %s\n",
				s.Tenant, s.Kind, objective, s.ShortBurn, s.LongBurn, state)
		}
	}
	return b.String()
}

// drainEvents empties buffered events, returning the newest.
func drainEvents(ch <-chan string, last string) string {
	for {
		select {
		case v := <-ch:
			last = v
		default:
			return last
		}
	}
}

// watchEvents follows the operator plane's /events SSE stream, sending
// each data payload (one store commit) to ch. The connection is retried
// forever — the daemon restarting mid-watch is exactly when an operator
// wants the dashboard to catch up.
func watchEvents(url string, ch chan<- string) {
	for {
		resp, err := http.Get(url)
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			time.Sleep(2 * time.Second)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				select {
				case ch <- data:
				default: // dashboard busy; drop — the next frame re-polls anyway
				}
			}
		}
		resp.Body.Close()
		time.Sleep(2 * time.Second)
	}
}

// render draws one frame. It is a pure function of two snapshots so
// the layout is unit-testable without a daemon.
func render(addr string, st, prev api.RuntimeStats, havePrev bool, interval time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gvrt-top — %s — %s\n\n", addr, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "queue %d  contexts %d  calls %d  binds %d  swaps %d  migrations %d  recoveries %d  offloaded %d  sheds %d\n",
		st.QueueDepth, st.LiveContexts, st.CallsServed, st.Binds,
		st.SwapOps, st.Migrations, st.Recoveries, st.Offloaded, st.Sheds)
	if st.MigrationsStarted+st.MigrationsCompleted+st.MigrationsAborted+
		st.FenceRejections+st.LeaseRenewals > 0 {
		fmt.Fprintf(&b, "failover: migrations %d started / %d completed / %d aborted  fenced %d  lease renewals %d\n",
			st.MigrationsStarted, st.MigrationsCompleted, st.MigrationsAborted,
			st.FenceRejections, st.LeaseRenewals)
	}
	if havePrev {
		secs := interval.Seconds()
		if secs <= 0 {
			secs = 1
		}
		fmt.Fprintf(&b, "rates: %.1f calls/s  %.1f launches/s  %.1f swap MB/s\n",
			float64(st.CallsServed-prev.CallsServed)/secs,
			float64(launches(st)-launches(prev))/secs,
			float64(st.SwapBytes-prev.SwapBytes)/secs/1e6)
	}

	b.WriteString("\nDEV MODEL        STATE    VGPU       UTIL  LAUNCH      MEM\n")
	for i, d := range st.Devices {
		state := "healthy"
		if !d.Healthy {
			state = "FAILED"
		}
		util := 0.0
		if havePrev && i < len(prev.Devices) {
			// Busy delta over the interval in model time; the daemon's
			// model clock may run faster than wall time, so clamp to 100%.
			dBusy := float64(d.BusyNS - prev.Devices[i].BusyNS)
			util = dBusy / float64(interval.Nanoseconds()) * 100
			if util > 100 {
				util = 100
			}
		}
		fmt.Fprintf(&b, "%-3d %-12s %-8s %2d/%-2d %s %5.1f%% %7d %4d/%dMB\n",
			d.Index, d.Name, state, d.ActiveVGPUs, d.VGPUs,
			bar(util, 10), util, d.Launches,
			(d.Capacity-d.MemAvailable)>>20, d.Capacity>>20)
	}

	if len(st.Histograms) > 0 {
		fmt.Fprintf(&b, "\n%-26s %9s %12s %12s", "LATENCY", "count", "p50", "p99")
		if havePrev {
			fmt.Fprintf(&b, "   %9s %12s %12s", "Δcount", "Δp50", "Δp99")
		}
		b.WriteByte('\n')
		for _, k := range trace.SortedKeys(st.Histograms) {
			h := st.Histograms[k]
			fmt.Fprintf(&b, "%-26s %9d %12s %12s", k, h.Count,
				trace.FormatValue(k, h.Quantile(0.5)), trace.FormatValue(k, h.Quantile(0.99)))
			if havePrev {
				d := h.Delta(prev.Histograms[k])
				if d.Count > 0 {
					fmt.Fprintf(&b, "   %9d %12s %12s", d.Count,
						trace.FormatValue(k, d.Quantile(0.5)), trace.FormatValue(k, d.Quantile(0.99)))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// launches sums per-device launch counters.
func launches(st api.RuntimeStats) int64 {
	var n int64
	for _, d := range st.Devices {
		n += d.Launches
	}
	return n
}

// bar renders a width-cell utilization bar.
func bar(pct float64, width int) string {
	filled := int(pct / 100 * float64(width))
	if filled > width {
		filled = width
	}
	if filled < 0 {
		filled = 0
	}
	return "[" + strings.Repeat("|", filled) + strings.Repeat(" ", width-filled) + "]"
}
