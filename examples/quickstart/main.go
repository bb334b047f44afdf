// Quickstart: two applications whose aggregate memory requirements
// exceed one GPU share it anyway — the scenario of the paper's Figure 1
// and §4.5 — while real data flows through the virtual memory system
// end to end.
//
// On the bare CUDA runtime this workload would fail with an
// out-of-memory error (two 1.5 GB working sets on a 3 GB device);
// under gvrt the memory manager time-shares the device via
// inter-application swap, and both applications still compute the right
// answer.
//
// Each tenant carries a small buffer pair with real bytes (so the
// result is verifiable) plus a large synthetic workspace (modeled
// gigabytes that cost transfer time but no host memory) that creates
// the memory conflict.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"gvrt/internal/cluster"
	"gvrt/internal/frontend"
	"log"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

const binID = "examples/quickstart"

func init() {
	// The host-side implementation of our kernel: y[i] += x[i]. It
	// stands in for the device code inside the fat binary; the
	// workspace argument is touched only by the modeled timing.
	api.RegisterKernelImpl(binID, "axpy", func(mem api.KernelMemory, scalars []uint64) error {
		x, err := mem.Arg(0)
		if err != nil {
			return err
		}
		y, err := mem.Arg(1)
		if err != nil {
			return err
		}
		for i := uint64(0); i < scalars[0]; i++ {
			y[i] += x[i]
		}
		return nil
	})
}

func fatBinary() api.FatBinary {
	return api.FatBinary{
		ID: binID,
		Kernels: []api.KernelMeta{
			{Name: "axpy", BaseTime: 200 * time.Millisecond},
		},
	}
}

// app uploads real data into small x/y buffers, allocates a large
// modeled workspace, and runs three axpy kernels with CPU phases
// between them, verifying y == 3x at the end.
func app(name string, node *cluster.Node, wsBytes uint64, done chan<- error) {
	c := frontend.Connect(node.Dial())
	defer c.Close()

	fail := func(err error) { done <- fmt.Errorf("%s: %w", name, err) }

	if err := c.RegisterFatBinary(fatBinary()); err != nil {
		fail(err)
		return
	}
	const n = 8
	x, err := c.Malloc(n)
	if err != nil {
		fail(err)
		return
	}
	y, err := c.Malloc(n)
	if err != nil {
		fail(err)
		return
	}
	ws, err := c.Malloc(wsBytes)
	if err != nil {
		fail(err)
		return
	}

	xs := make([]byte, n)
	for i := range xs {
		xs[i] = byte(i + 1)
	}
	if err := c.MemcpyHD(x, xs); err != nil {
		fail(err)
		return
	}
	if err := c.MemcpyHD(y, make([]byte, n)); err != nil {
		fail(err)
		return
	}
	if err := c.MemcpyHDSynthetic(ws, wsBytes); err != nil {
		fail(err)
		return
	}

	for iter := 0; iter < 3; iter++ {
		if err := c.Launch(api.LaunchCall{
			Kernel:   "axpy",
			Grid:     api.Dim3{X: 1024},
			Block:    api.Dim3{X: 256},
			PtrArgs:  []api.DevPtr{x, y, ws},
			Scalars:  []uint64{n},
			ReadOnly: []bool{true, false, false},
		}); err != nil {
			fail(err)
			return
		}
		// A CPU phase: while this tenant post-processes, the other one
		// can claim the GPU (this is when swap requests are honoured).
		node.RT.Clock().Sleep(500 * time.Millisecond)
	}

	out, err := c.MemcpyDH(y, n)
	if err != nil {
		fail(err)
		return
	}
	for i := 0; i < n; i++ {
		if want := 3 * byte(i+1); out[i] != want {
			fail(fmt.Errorf("y[%d] = %d, want %d", i, out[i], want))
			return
		}
	}
	fmt.Printf("%s: y = 3*x verified (%v...)\n", name, out[:4])
	done <- nil
}

func main() {
	clock := sim.NewClock(0.001) // 1 model second = 1 wall millisecond
	node, err := cluster.NewNode("node", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{VGPUsPerDevice: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// Each tenant's working set is ~1.5 GB; the C2050 offers 3 GB
	// minus per-vGPU reservations, so the two tenants cannot be
	// resident together: gvrt swaps them in and out as they alternate.
	const ws = 1500 << 20

	done := make(chan error, 2)
	go app("tenant-A", node, ws, done)
	go app("tenant-B", node, ws, done)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}

	m := node.RT.Metrics()
	fmt.Printf("\nruntime metrics: binds=%d interAppSwaps=%d swapOps=%d swapBytes=%dMB\n",
		m.Binds, m.InterAppSwaps, m.Memory.SwapOps, m.Memory.SwapBytes>>20)
	if m.InterAppSwaps == 0 && m.UnbindRetries == 0 {
		fmt.Println("(no memory pressure was observed this run — try increasing the workspace)")
	} else {
		fmt.Println("both tenants exceeded device memory together, yet both completed:")
		fmt.Println("that is the virtual-memory contribution of the paper.")
	}
}
