package cluster

import (
	"runtime"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// TestOffloadDeferredFailure: over a TCP peer the head posts an
// offloaded session's frees and launches (§4.7) and answers them at
// once, so a launch naming a freed pointer fails on the peer after the
// application has moved on. Its code is the reply to the session's next
// call, and the connection ends with it, CUDA's sticky error: the peer
// tears the context down, and every later call returns
// ErrConnectionClosed, never Success.
func TestOffloadDeferredFailure(t *testing.T) {
	// The client does not retry: the code reaches the application as is.
	t.Run("retry=false", func(t *testing.T) {
		dial, peerDone := tcpPeer(t)
		node, err := NewNode("node", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050},
			core.Config{VGPUsPerDevice: 1, OffloadThreshold: 1, PeerDial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		defer holdVGPU(t, node).Close()

		c := frontend.Connect(node.Dial())
		defer c.Close()
		ok(t, c.RegisterFatBinary(sessionBinary))
		p, err := c.Malloc(4096)
		ok(t, err)
		ok(t, c.Free(p))
		ok(t, c.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}))
		if off := node.RT.Metrics().Offloaded; off != 1 {
			t.Fatalf("%d sessions offloaded, want 1", off)
		}
		if _, err := c.Malloc(4096); api.Code(err) != api.ErrInvalidDevicePointer {
			t.Fatalf("call after the posted launch = %v, want its ErrInvalidDevicePointer", err)
		}
		select {
		case <-peerDone:
		case <-time.After(10 * time.Second):
			t.Fatal("peer still holds the session's context 10s after the failure")
		}
		for name, call := range map[string]func() error{
			"malloc": func() error { _, err := c.Malloc(4096); return err },
			"launch": func() error { return c.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}) },
			"copy":   func() error { return c.MemcpyHDSynthetic(p, 64) },
			"read":   func() error { _, err := c.MemcpyDH(p, 64); return err },
		} {
			if err := call(); api.Code(err) != api.ErrConnectionClosed {
				t.Errorf("%s after the deferred failure = %v, want ErrConnectionClosed", name, err)
			}
		}
	})
}

// TestOffloadedSessionLeavesNoGoroutines: once an offloaded in-process
// session ends, the head and its peer are back at the goroutines they
// ran before it, with both nodes still open. A proxied call starts
// nothing that outlives it, so no sleeper is left behind on the model
// clock.
func TestOffloadedSessionLeavesNoGoroutines(t *testing.T) {
	clock := sim.NewClock(1e-3)
	head, err := NewNode("head", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{VGPUsPerDevice: 1, OffloadThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	peer, err := NewNode("peer", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	head.SetPeer(peer)

	defer holdVGPU(t, head).Close()
	before := runtime.NumGoroutine()

	c := frontend.Connect(head.Dial())
	ok(t, c.RegisterFatBinary(sessionBinary))
	p, err := c.Malloc(4096)
	ok(t, err)
	for i := 0; i < 20; i++ {
		ok(t, c.MemcpyHD(p, []byte{byte(i)}))
		ok(t, c.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}))
	}
	_, err = c.MemcpyDH(p, 1)
	ok(t, err)
	ok(t, c.Close())
	if off := head.RT.Metrics().Offloaded; off != 1 {
		t.Fatalf("%d sessions offloaded, want 1", off)
	}

	// The session's own goroutines need a moment to leave; one model
	// second of the clock is a wall millisecond, so a leftover sleeper
	// on it would still be there when this wait gives up.
	const slack = 2
	now := runtime.NumGoroutine()
	for wait := time.Now().Add(time.Second); now > before+slack && time.Now().Before(wait); now = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if now > before+slack {
		t.Errorf("%d goroutines after the offloaded session ended, %d before it", now, before)
	}
}

// holdVGPU binds a ballast session to n's only vGPU, so n offloads the
// next session that arrives. The caller closes it.
func holdVGPU(t *testing.T, n *Node) *frontend.Client {
	ballast := frontend.Connect(n.Dial())
	b, err := ballast.Malloc(4096)
	ok(t, err)
	ok(t, ballast.RegisterFatBinary(sessionBinary))
	ok(t, ballast.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{b}}))
	return ballast
}
