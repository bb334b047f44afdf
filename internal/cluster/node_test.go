package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

// newC2050Node builds a one-C2050 node at a fast clock and closes it
// with the test.
func newC2050Node(t *testing.T, cfg core.Config) (*Node, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock(1e-6)
	node, err := NewNode("node", clock, []gpu.Spec{gpu.TeslaC2050}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node, clock
}

// TestPublicAPIQuickstart exercises the documented entry points the way
// an application would: build a node, connect a client, push data
// through a kernel and read it back.
func TestPublicAPIQuickstart(t *testing.T) {
	const binID = "facade-test"
	api.RegisterKernelImpl(binID, "add1", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		for i := uint64(0); i < scalars[0]; i++ {
			buf[i]++
		}
		return nil
	})
	defer api.RegisterKernelImpl(binID, "add1", nil)

	node, _ := newC2050Node(t, core.Config{})
	c := frontend.Connect(node.Dial())
	defer c.Close()
	if err := c.RegisterFatBinary(api.FatBinary{
		ID:      binID,
		Kernels: []api.KernelMeta{{Name: "add1", BaseTime: time.Millisecond}},
	}); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "add1", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.MemcpyDH(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{2, 3, 4}) {
		t.Errorf("result = %v, want [2 3 4]", out)
	}

	n, err := c.DeviceCount()
	if err != nil || n != 4 {
		t.Errorf("DeviceCount = %d, %v; want 4 vGPUs", n, err)
	}
	if m := node.RT.Metrics(); m.Binds != 1 {
		t.Errorf("Binds = %d, want 1", m.Binds)
	}
}

func TestPublicAPITCP(t *testing.T) {
	node, clock := newC2050Node(t, core.Config{})
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go node.RT.ServeListener(l)

	conn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := frontend.Connect(conn)
	defer c.Close()
	apps := workload.AllApps()
	if err := workload.Run(clock, c, apps[1]); err != nil { // BFS
		t.Fatal(err)
	}
}

func TestPublicAPIErrorCodes(t *testing.T) {
	node, _ := newC2050Node(t, core.Config{})
	c := frontend.Connect(node.Dial())
	defer c.Close()
	if err := c.Free(0xbad); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("Free(wild) = %v, want ErrInvalidDevicePointer", err)
	}
}

func TestPublicAPICluster(t *testing.T) {
	clock := sim.NewClock(1e-7)
	a, err := NewNode("a", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", clock, []gpu.Spec{gpu.TeslaC1060}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	head := NewHead(clock, a, b)
	res := head.RunOblivious(workload.RandomShortBatch(sim.NewRNG(3), 6))
	if res.Failed() != 0 {
		t.Fatalf("cluster batch failed: %v", res.Errors)
	}
}

func TestFacadeTraceIntegration(t *testing.T) {
	rec := trace.NewRecorder(64)
	node, _ := newC2050Node(t, core.Config{Trace: rec})
	c := frontend.Connect(node.Dial())
	c.Close()
	// Teardown (and its exit event) completes asynchronously after the
	// connection closes.
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.Filter(trace.KindExit)) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	evs := rec.Filter(trace.KindConnect, trace.KindExit)
	if len(evs) != 2 {
		t.Errorf("trace events = %v", evs)
	}
}
