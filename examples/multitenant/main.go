// Multi-tenant cloud service: a gvrt daemon serves many tenants over
// TCP, the deployment scenario of the paper's Figure 2(a).
//
// A runtime daemon owns a three-GPU node and listens on a TCP port —
// exactly like cmd/gvrtd. Twenty tenants connect concurrently (far
// beyond the bare CUDA runtime's stable limit of eight processes), each
// running a randomly drawn Table 2 benchmark. The daemon abstracts the
// GPUs (tenants see only virtual GPUs), shares them, and isolates the
// tenants from one another.
//
// Run with: go run ./examples/multitenant
package main

import (
	"fmt"
	"gvrt/internal/cluster"
	"log"

	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

func main() {
	clock := sim.NewClock(0.001)
	node, err := cluster.NewNode("node", clock,
		[]gpu.Spec{gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060}, core.Config{VGPUsPerDevice: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// The daemon side: listen and serve, as cmd/gvrtd does.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go node.RT.ServeListener(l)
	fmt.Printf("gvrt daemon serving 3 GPUs (12 vGPUs) on %s\n", l.Addr())

	// The tenant side: 20 concurrent jobs over TCP.
	const tenants = 20
	apps := workload.RandomShortBatch(sim.NewRNG(42), tenants)
	res := workload.RunBatch(clock, apps, func(i int) (workload.CUDA, error) {
		conn, err := transport.Dial(l.Addr())
		if err != nil {
			return nil, err
		}
		return frontend.Connect(conn), nil
	})

	fmt.Printf("\n%-3s %-6s %8s\n", "#", "app", "time (s)")
	for i, app := range apps {
		status := fmt.Sprintf("%8.1f", res.JobTimes[i].Seconds())
		if res.Errors[i] != nil {
			status = "FAILED: " + res.Errors[i].Error()
		}
		fmt.Printf("%-3d %-6s %s\n", i, app.Name, status)
	}
	fmt.Printf("\nbatch: total %.1f s, avg %.1f s, failures %d\n",
		res.Total.Seconds(), res.Avg.Seconds(), res.Failed())

	m := node.RT.Metrics()
	fmt.Printf("runtime: %d calls served, %d binds, %d swaps, %d bad ops rejected\n",
		m.CallsServed, m.Binds, m.Memory.SwapOps, m.Memory.BadOpsRejected)
	fmt.Printf("(the bare CUDA runtime supports at most 8 such tenants concurrently)\n")
}
