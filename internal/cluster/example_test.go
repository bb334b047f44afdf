package cluster_test

import (
	"fmt"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/cluster"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// ExampleNewNode shows the minimal end-to-end flow: one node, one
// client, one kernel, data verified.
func ExampleNewNode() {
	api.RegisterKernelImpl("doc", "double", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		for i := uint64(0); i < scalars[0]; i++ {
			buf[i] *= 2
		}
		return nil
	})
	defer api.RegisterKernelImpl("doc", "double", nil)

	node, err := cluster.NewNode("node", sim.NewClock(1e-6), []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer node.Close()

	c := frontend.Connect(node.Dial())
	defer c.Close()
	_ = c.RegisterFatBinary(api.FatBinary{
		ID:      "doc",
		Kernels: []api.KernelMeta{{Name: "double", BaseTime: time.Millisecond}},
	})
	p, _ := c.Malloc(64)
	_ = c.MemcpyHD(p, []byte{1, 2, 3})
	_ = c.Launch(api.LaunchCall{Kernel: "double", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}})
	out, _ := c.MemcpyDH(p, 3)
	fmt.Println(out)
	// Output: [2 4 6]
}
