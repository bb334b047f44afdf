// Command gvrt-run submits benchmark applications to a gvrtd daemon
// over TCP and reports their execution times — a stand-in for the
// paper's CUDA applications linked against the intercept library.
//
// Usage:
//
//	gvrt-run -addr localhost:7070 -app BFS            # one named app
//	gvrt-run -addr localhost:7070 -random 16 -seed 3  # a random batch
//	gvrt-run -addr localhost:7070 -app MM-L -n 4 -cpufrac 1.5
//	gvrt-run -list                                    # list app names
//
// All instances run concurrently, like a batch of tenants.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gvrt/internal/frontend"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:7070", "gvrtd daemon address")
		appName = flag.String("app", "", "Table 2 application name (see -list)")
		n       = flag.Int("n", 1, "number of concurrent instances of -app")
		random  = flag.Int("random", 0, "run this many randomly drawn short jobs instead")
		seed    = flag.Int64("seed", 1, "seed for -random")
		cpuFrac = flag.Float64("cpufrac", 1, "CPU fraction for MM-S / MM-L")
		scale   = flag.Float64("scale", 1e-3, "wall seconds per model second (must match the daemon)")
		tenant  = flag.String("tenant", "", "attribute every session to this tenant")
		stats   = flag.Bool("stats", false, "print the daemon's metrics snapshot and exit")
		list    = flag.Bool("list", false, "list application names and exit")
	)
	flag.Parse()

	if *list {
		for _, app := range workload.AllApps() {
			fmt.Printf("%-6s kernels=%-5d mem=%dMB\n", app.Name, app.KernelCalls, app.MemBytes>>20)
		}
		return
	}

	if *stats {
		conn, err := transport.Dial(*addr)
		if err != nil {
			log.Fatalf("gvrt-run: %v", err)
		}
		c := frontend.Connect(conn)
		defer c.Close()
		st, err := c.Stats()
		if err != nil {
			log.Fatalf("gvrt-run: stats: %v", err)
		}
		fmt.Printf("calls=%d binds=%d queue=%d contexts=%d swaps=%d migrations=%d recoveries=%d offloaded=%d\n",
			st.CallsServed, st.Binds, st.QueueDepth, st.LiveContexts,
			st.SwapOps, st.Migrations, st.Recoveries, st.Offloaded)
		for _, d := range st.Devices {
			fmt.Printf("  gpu%d %-12s healthy=%-5v vgpus=%d/%d busy=%.1fs mem=%d/%dMB launches=%d\n",
				d.Index, d.Name, d.Healthy, d.ActiveVGPUs, d.VGPUs,
				float64(d.BusyNS)/1e9, d.MemAvailable>>20, d.Capacity>>20, d.Launches)
		}
		if len(st.Histograms) > 0 {
			fmt.Printf("  %-26s %9s %12s %12s\n", "histogram", "count", "p50", "p99")
			for _, k := range trace.SortedKeys(st.Histograms) {
				h := st.Histograms[k]
				fmt.Printf("  %-26s %9d %12s %12s\n", k, h.Count,
					trace.FormatValue(k, h.Quantile(0.5)), trace.FormatValue(k, h.Quantile(0.99)))
			}
		}
		return
	}

	clock := sim.NewClock(*scale)
	var apps []workload.App
	switch {
	case *random > 0:
		apps = workload.RandomShortBatch(sim.NewRNG(*seed), *random)
	case *appName != "":
		app, ok := workload.ByName(*appName, *cpuFrac)
		if !ok {
			log.Fatalf("gvrt-run: unknown application %q (use -list)", *appName)
		}
		for i := 0; i < *n; i++ {
			apps = append(apps, app)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	res := workload.RunBatch(clock, apps, func(i int) (workload.CUDA, error) {
		conn, err := transport.Dial(*addr)
		if err != nil {
			return nil, err
		}
		c := frontend.Connect(conn)
		if *tenant != "" {
			if err := c.SetTenant(*tenant); err != nil {
				c.Close()
				return nil, err
			}
		}
		return c, nil
	})

	for i, app := range apps {
		if res.Errors[i] != nil {
			fmt.Printf("%-6s FAILED: %v\n", app.Name, res.Errors[i])
		} else {
			fmt.Printf("%-6s %8.1f model s\n", app.Name, res.JobTimes[i].Seconds())
		}
	}
	fmt.Printf("batch: total %.1f s, avg %.1f s, failures %d\n",
		res.Total.Seconds(), res.Avg.Seconds(), res.Failed())
	if res.Failed() > 0 {
		os.Exit(1)
	}
}
