package cluster

import (
	"fmt"
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
// ErrConnectionClosed. A client that retries sees the same error, never
// Success.
func TestOffloadDeferredFailure(t *testing.T) {
	for _, retry := range []bool{false, true} {
		t.Run(fmt.Sprintf("retry=%v", retry), func(t *testing.T) {
			dial, peerDone := tcpPeer(t)
			node, err := NewNode("node", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050},
				core.Config{VGPUsPerDevice: 1, OffloadThreshold: 1, PeerDial: dial})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			ballast := frontend.Connect(node.Dial())
			defer ballast.Close()
			b, err := ballast.Malloc(4096)
			ok(t, err)
			ok(t, ballast.RegisterFatBinary(sessionBinary))
			ok(t, ballast.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{b}}))

			c := frontend.Connect(node.Dial())
			if retry {
				c.WithRetry(node.retrier)
			}
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
}
