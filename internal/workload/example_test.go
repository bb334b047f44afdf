package workload_test

import (
	"fmt"

	"gvrt/internal/cluster"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/workload"
)

// ExampleRunBatch runs a Table 2 benchmark batch and reports the
// paper's metric (the batch makespan in model time).
func ExampleRunBatch() {
	clock := sim.NewClock(1e-6)
	node, err := cluster.NewNode("node", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer node.Close()

	apps := workload.RandomShortBatch(sim.NewRNG(1), 4)
	res := workload.RunBatch(clock, apps, func(int) (workload.CUDA, error) {
		return frontend.Connect(node.Dial()), nil
	})
	fmt.Printf("%d jobs, %d failures\n", len(res.JobTimes), res.Failed())
	// Output: 4 jobs, 0 failures
}
