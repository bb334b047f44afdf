// Cluster: a TORQUE-like head dispatches jobs to two unequal compute
// nodes, and the overloaded node offloads excess application threads to
// its peer (paper §4.7, §5.4, Figures 10/11).
//
// Node A has three GPUs, node B has one; the GPU-oblivious head splits
// 32 jobs evenly, overloading B. The run is repeated in the paper's
// three configurations — serialized (1 vGPU/device), GPU sharing
// (4 vGPUs), and sharing + inter-node offloading — printing Total and
// Avg like Figure 10.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"gvrt/internal/cluster"
	"gvrt/internal/core"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/workload"
)

func runConfig(name string, vgpus int, offload bool) error {
	clock := sim.NewClock(0.001)
	cfg := func(gpus int) core.Config {
		c := core.Config{VGPUsPerDevice: vgpus}
		if offload {
			c.OffloadThreshold = 2 * vgpus * gpus
		}
		return c
	}
	a, err := cluster.NewNode("node-a", clock,
		[]gpu.Spec{gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060}, cfg(3))
	if err != nil {
		return err
	}
	b, err := cluster.NewNode("node-b", clock,
		[]gpu.Spec{gpu.TeslaC1060}, cfg(1))
	if err != nil {
		return err
	}
	a.SetPeer(b)
	b.SetPeer(a)
	defer a.Close()
	defer b.Close()

	head := cluster.NewHead(clock, a, b)
	res := head.RunOblivious(workload.RandomShortBatch(sim.NewRNG(7), 32))
	if res.Failed() > 0 {
		return fmt.Errorf("%s: %d jobs failed", name, res.Failed())
	}
	offloaded := a.RT.Metrics().Offloaded + b.RT.Metrics().Offloaded
	fmt.Printf("%-24s total %6.1f s   avg %6.1f s   offloaded %d\n",
		name, res.Total.Seconds(), res.Avg.Seconds(), offloaded)
	return nil
}

func main() {
	fmt.Println("32 short jobs on a 2-node cluster (3 GPUs + 1 GPU), GPU-oblivious head:")
	fmt.Println()
	if err := runConfig("serialized (1 vGPU)", 1, false); err != nil {
		log.Fatal(err)
	}
	if err := runConfig("GPU sharing (4 vGPUs)", 4, false); err != nil {
		log.Fatal(err)
	}
	if err := runConfig("sharing + offloading", 4, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("sharing removes the CUDA runtime's serialization; offloading drains")
	fmt.Println("the overloaded single-GPU node onto its three-GPU peer (paper Fig. 10).")
}
