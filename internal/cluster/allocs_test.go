package cluster

import (
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// TestLaunchDispatchAllocs pins the steady-state allocation cost of one
// kernel launch through the whole in-process stack: frontend call →
// pipe transport → dispatcher → resolve/checkFits/ensureResident →
// simulated device and back. The per-launch hot path reuses per-context
// scratch slices and lock-free binding reads (DESIGN.md §11), so its
// allocation count must stay flat: it measures 1.0 (the client boxing
// its call), and a budget of 2 catches one reintroduced per-launch
// slice or map.
func TestLaunchDispatchAllocs(t *testing.T) {
	node, err := NewNode("node", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c := frontend.Connect(node.Dial())
	defer c.Close()
	if err := c.RegisterFatBinary(api.FatBinary{
		ID:      "allocs",
		Kernels: []api.KernelMeta{{Name: "k", BaseTime: time.Microsecond}},
	}); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	call := api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}
	// Warm: first launch binds the context and lands the deferred
	// transfer; steady state begins after it.
	for i := 0; i < 10; i++ {
		if err := c.Launch(call); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := c.Launch(call); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("launch dispatch: %.1f allocs/launch", avg)
	const budget = 2
	if avg > budget {
		t.Errorf("launch dispatch allocates %.1f objects/launch, budget %d", avg, budget)
	}
}
