// Fault tolerance: an iterative application survives a GPU failure in
// the middle of its run (paper §4.6).
//
// The application accumulates state on the device across ten kernel
// calls. Halfway through, its GPU dies. The runtime invalidates the
// context's residency, re-binds it to the surviving GPU, restores the
// last checkpointed state from the host-side swap area and replays the
// kernels logged since — the application never notices, and its final
// result is bit-exact.
//
// The scenario runs twice: without automatic checkpoints (every kernel
// since the start must be replayed) and with them (nothing replays) —
// the trade-off §4.6 describes.
//
// Run with: go run ./examples/faulttolerance
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

const binID = "examples/faulttolerance"

func init() {
	// step: state[i] = state[i]*2 + 1 — order-sensitive, so a missed or
	// doubled replay would corrupt the result visibly.
	api.RegisterKernelImpl(binID, "step", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		for i := uint64(0); i < scalars[0]; i++ {
			buf[i] = buf[i]*2 + 1
		}
		return nil
	})
}

const (
	iters      = 10
	n          = 4
	kernelTime = 2 * time.Second
)

// scenario runs the iterative job, kills its GPU halfway, and verifies
// the final state.
func scenario(autoCheckpoint time.Duration) error {
	clock := sim.NewClock(0.001)
	node, err := cluster.NewNode("node", clock, []gpu.Spec{gpu.TeslaC2050, gpu.TeslaC2050},
		core.Config{AutoCheckpoint: autoCheckpoint})
	if err != nil {
		return err
	}
	defer node.Close()

	c := frontend.Connect(node.Dial())
	defer c.Close()
	if err := c.RegisterFatBinary(api.FatBinary{
		ID:      binID,
		Kernels: []api.KernelMeta{{Name: "step", BaseTime: kernelTime}},
	}); err != nil {
		return err
	}

	state, err := c.Malloc(n)
	if err != nil {
		return err
	}
	if err := c.MemcpyHD(state, make([]byte, n)); err != nil {
		return err
	}

	for i := 0; i < iters; i++ {
		if i == iters/2 {
			fmt.Println("  !! killing the GPU the application is bound to")
			// Device 0 is where the first context binds (the balanced
			// policy fills the first device first).
			node.RT.FailDevice(0)
		}
		if err := c.Launch(api.LaunchCall{
			Kernel:  "step",
			PtrArgs: []api.DevPtr{state},
			Scalars: []uint64{n},
		}); err != nil {
			return fmt.Errorf("kernel %d: %w", i, err)
		}
		clock.Sleep(time.Second) // CPU phase between iterations
	}

	out, err := c.MemcpyDH(state, n)
	if err != nil {
		return err
	}
	// state starts at 0; after k steps of x -> 2x+1 it is 2^k-1, and
	// byte arithmetic wraps mod 256.
	want := byte((1<<iters - 1) & 0xff)
	for i, v := range out {
		if v != want {
			return fmt.Errorf("state[%d] = %d, want %d: recovery corrupted data", i, v, want)
		}
	}
	m := node.RT.Metrics()
	fmt.Printf("  state verified (%d each); recoveries=%d kernelsReplayed=%d checkpoints=%d\n",
		want, m.Recoveries, m.Replays, m.Memory.Checkpoints)
	return nil
}

func main() {
	fmt.Println("without automatic checkpoints (work since the start replays):")
	if err := scenario(0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("with automatic checkpoints after every long kernel (nothing replays):")
	if err := scenario(time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nin both runs the application survived a GPU failure with bit-exact state;")
	fmt.Println("checkpoints trade steady-state copies for a cheaper restart (paper §4.6).")
}
