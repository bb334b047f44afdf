package gpu_test

import (
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/cudart"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// TestContextChurnLeavesTableUnchanged creates and destroys 10,000 CUDA
// contexts on one device beside a device-level allocation and a
// long-lived context, each holding real bytes. Each short-lived context
// allocates, copies real bytes in and frees some of its allocations,
// leaving the rest to Destroy. Afterwards the device's table must hold
// exactly what it held before: the same blocks with the same owners and
// bytes, and the same free spans.
func TestContextChurnLeavesTableUnchanged(t *testing.T) {
	clock := sim.NewClock(1e-9)
	dev := gpu.NewDevice(0, gpu.TeslaC2050, clock)
	crt := cudart.New(clock, dev)
	crt.SetLimits(1<<20, 0, 0)
	p, err := dev.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.CopyIn(p, []byte("device"), 0); err != nil {
		t.Fatal(err)
	}
	keep, err := crt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := keep.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := keep.MemcpyHD(q, []byte("context"), 0); err != nil {
		t.Fatal(err)
	}
	before := dev.Table()
	for i := 0; i < 10000; i++ {
		c, err := crt.CreateContext(0)
		if err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
		var ptrs []api.DevPtr
		for k := 0; k <= i%3; k++ {
			p, err := c.Malloc(uint64(100 + 1000*k))
			if err != nil {
				t.Fatalf("context %d: %v", i, err)
			}
			ptrs = append(ptrs, p)
		}
		if err := c.MemcpyHD(ptrs[0], []byte{byte(i)}, 0); err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
		if i%2 == 0 {
			if _, err := c.Free(ptrs[len(ptrs)-1]); err != nil {
				t.Fatalf("context %d: %v", i, err)
			}
		}
		c.Destroy()
	}
	if after := dev.Table(); after != before {
		t.Errorf("table after 10,000 contexts:\n%s\nbefore:\n%s", after, before)
	}
	if n := crt.ContextsOn(0); n != 1 {
		t.Errorf("%d contexts on the device, want 1", n)
	}
}
