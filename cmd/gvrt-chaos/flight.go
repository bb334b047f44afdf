// Flight-recorder post-mortem reader: `gvrt-chaos -flight-read <path>`
// loads a black-box dump a crashed (or drained) node left behind and
// prints what the node saw in its final moments — the ring of cold-path
// events, the histogram deltas since the previous dump, and the stats
// snapshot at dump time. Exit status 0 means the dump is schema-valid.
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gvrt/internal/obs"
	"gvrt/internal/trace"
)

// readFlight loads, validates and prints one dump. Returns an exit
// code: a corrupt or wrong-schema dump is a hard failure so CI can
// assert "the SIGKILL'd node left a parseable black box" with a single
// invocation.
func readFlight(path string) int {
	d, err := obs.ReadFlightDump(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	fmt.Printf("=== flight dump %s ===\n", path)
	fmt.Printf("node %s  reason %q  wall %s  seq %d\n",
		d.Node, d.Reason, d.Wall.Format(time.RFC3339Nano), d.Seq)

	fmt.Printf("\n--- black-box ring (%d records) ---\n", len(d.Records))
	if dropped := d.Seq - uint64(len(d.Records)); dropped > 0 {
		fmt.Printf("(%d older records overwritten by the ring)\n", dropped)
	}
	for _, r := range d.Records {
		fmt.Println(flightLine(r))
	}

	if len(d.Hists) > 0 {
		fmt.Printf("\n--- histogram deltas since previous dump ---\n")
		fmt.Printf("  %-26s %9s %12s %12s\n", "FAMILY", "count", "p50", "p99")
		for _, k := range trace.SortedKeys(d.Hists) {
			h := d.Hists[k]
			if h.Count == 0 {
				continue
			}
			fmt.Printf("  %-26s %9d %12s %12s\n", k, h.Count,
				trace.FormatValue(k, h.Quantile(0.5)), trace.FormatValue(k, h.Quantile(0.99)))
		}
	}

	if s := d.Stats; s != nil {
		fmt.Printf("\n--- stats at dump time ---\n")
		fmt.Printf("  calls=%d contexts=%d queue=%d binds=%d swaps=%d swapMB=%d migrations=%d\n",
			s.CallsServed, s.LiveContexts, s.QueueDepth, s.Binds,
			s.SwapOps, s.SwapBytes>>20, s.Migrations)
		fmt.Printf("  fenced=%d sheds=%d recoveries=%d gpu=%.3fs\n",
			s.FenceRejections, s.Sheds, s.Recoveries, float64(s.GPUTimeNS)/1e9)
		if len(s.Tenants) > 0 {
			names := make([]string, 0, len(s.Tenants))
			for t := range s.Tenants {
				names = append(names, t)
			}
			sort.Strings(names)
			for _, t := range names {
				u := s.Tenants[t]
				fmt.Printf("  tenant %-12s calls=%d launches=%d gpu=%.3fs swapMB=%d\n",
					t, u.Calls, u.Launches, float64(u.GPUTimeNS)/1e9, u.SwapBytes>>20)
			}
		}
	}
	return 0
}

// flightLine formats one black-box record. A record names a device
// when Device >= 0 (-1 means none), as trace.Event.String does.
func flightLine(r obs.FlightRecord) string {
	line := fmt.Sprintf("  #%-5d %12s  %-16s", r.Seq, r.Model, r.Kind)
	if r.Ctx != 0 {
		line += fmt.Sprintf(" ctx=%d", r.Ctx)
	}
	if r.Device >= 0 {
		line += fmt.Sprintf(" dev=%d", r.Device)
	}
	if r.Detail != "" {
		line += "  " + r.Detail
	}
	return line
}
