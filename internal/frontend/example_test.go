package frontend_test

import (
	"fmt"

	"gvrt/internal/cluster"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// ExampleClient_DeviceCount shows the paper's device abstraction: the
// application sees virtual GPUs, not the physical hardware.
func ExampleClient_DeviceCount() {
	node, err := cluster.NewNode("node", sim.NewClock(1e-6),
		[]gpu.Spec{gpu.TeslaC2050, gpu.TeslaC1060}, core.Config{VGPUsPerDevice: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer node.Close()

	c := frontend.Connect(node.Dial())
	defer c.Close()
	n, _ := c.DeviceCount()
	fmt.Printf("2 physical GPUs appear as %d devices\n", n)
	// cudaSetDevice is accepted and ignored: procurement is abstracted.
	fmt.Println(c.SetDevice(99) == nil)
	// Output:
	// 2 physical GPUs appear as 8 devices
	// true
}
