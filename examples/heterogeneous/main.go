// Heterogeneous node: load balancing through dynamic binding (paper
// §5.3.4, Figure 9).
//
// A node has one fast Tesla C2050 and one slow Quadro 2000. Two
// long-running jobs start together: one lands on the fast GPU, the
// other on the slow one. When the fast job finishes, the runtime
// migrates the slow job — page table and swap area in hand — onto the
// fast GPU mid-run, shortening its remaining iterations by ~3x.
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"gvrt/internal/cluster"
	"gvrt/internal/frontend"
	"log"
	"sync"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

const binID = "examples/heterogeneous"

func fatBinary() api.FatBinary {
	return api.FatBinary{
		ID:      binID,
		Kernels: []api.KernelMeta{{Name: "iterate", BaseTime: time.Second}},
	}
}

// job runs iterations of a 1 s (reference-device) kernel with CPU
// phases between them, reporting its total model time.
func job(name string, node *cluster.Node, iters int) (time.Duration, error) {
	c := frontend.Connect(node.Dial())
	defer c.Close()
	if err := c.RegisterFatBinary(fatBinary()); err != nil {
		return 0, err
	}
	buf, err := c.Malloc(64 << 20)
	if err != nil {
		return 0, err
	}
	if err := c.MemcpyHDSynthetic(buf, 64<<20); err != nil {
		return 0, err
	}
	start := node.RT.Clock().Now()
	for i := 0; i < iters; i++ {
		if err := c.Launch(api.LaunchCall{Kernel: "iterate", PtrArgs: []api.DevPtr{buf}}); err != nil {
			return 0, err
		}
		node.RT.Clock().Sleep(400 * time.Millisecond) // CPU phase
	}
	return node.RT.Clock().Now() - start, nil
}

func main() {
	clock := sim.NewClock(0.001)
	node, err := cluster.NewNode("node", clock, []gpu.Spec{gpu.TeslaC2050, gpu.Quadro2000}, core.Config{
		VGPUsPerDevice:  1,
		EnableMigration: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	var wg sync.WaitGroup
	times := make([]time.Duration, 2)
	errs := make([]error, 2)
	// Job 0 is short and will release the fast GPU early; job 1 is
	// long and starts on the slow Quadro. Job 0 is submitted first so
	// the dispatcher (which prefers the faster device) binds it to the
	// C2050; job 1 then gets the Quadro.
	iters := []int{4, 20}
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i], errs[i] = job(fmt.Sprintf("job-%d", i), node, iters[i])
		}(i)
		time.Sleep(300 * time.Microsecond) // ~0.3 model s: lets job i bind first
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			log.Fatalf("job-%d: %v", i, err)
		}
	}

	m := node.RT.Metrics()
	fmt.Printf("job-0 (fast GPU, %d iters): %5.1f model s\n", iters[0], times[0].Seconds())
	fmt.Printf("job-1 (starts slow, %d iters): %5.1f model s\n", iters[1], times[1].Seconds())
	fmt.Printf("migrations: %d\n", m.Migrations)
	if m.Migrations > 0 {
		// Without migration, job-1 would need 20 * (1s/0.35 + 0.4s) = 65 s.
		fmt.Println("job-1 was migrated to the fast GPU after job-0 finished —")
		fmt.Println("compare ~65 model s had it stayed on the Quadro 2000.")
	} else {
		fmt.Println("(no migration occurred this run)")
	}
}
