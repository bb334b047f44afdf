package cluster

import (
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// TestLaunchDispatchAllocs pins the steady-state allocation cost of one
// kernel launch through the whole in-process stack: frontend call →
// pipe transport → dispatcher → resolve/checkFits/ensureResident →
// simulated device and back. The per-launch hot path reuses per-context
// scratch slices and lock-free binding reads (DESIGN.md §11), and the
// client sends a reusable pointer call, which boxes for free, so it
// measures 0.0: a budget of 0 catches one reintroduced per-launch
// object.
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
	const budget = 0
	if avg > budget {
		t.Errorf("launch dispatch allocates %.1f objects/launch, budget %d", avg, budget)
	}
}

// TestCopyLaunchPairAllocs pins pipe-dispatch's steady-state call pair
// over a pipe — a synthetic host→device copy into a buffer the last
// launch read, then a launch over it — at zero allocations. The copy
// checkpoints (the buffer is in the replay log), and the launch's log
// entry shares the argument slices the previous one kept. A launch
// whose scalars differ every time is copied into the context's argument
// arena, whose growth amortises to well under one object per launch
// (AllocsPerRun truncates the average to whole objects).
func TestCopyLaunchPairAllocs(t *testing.T) {
	node, err := NewNode("node", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c := frontend.Connect(node.Dial())
	defer c.Close()
	ok(t, c.RegisterFatBinary(sessionBinary))
	a, err := c.Malloc(256 << 10)
	ok(t, err)
	b, err := c.Malloc(256 << 10)
	ok(t, err)
	launch := api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{a, b}, Scalars: []uint64{0}}
	for _, tc := range []struct {
		name string
		vary bool
	}{{"repeated", false}, {"varying scalars", true}} {
		t.Run(tc.name, func(t *testing.T) {
			pair := func() {
				if tc.vary {
					launch.Scalars[0]++
				}
				ok(t, c.MemcpyHDSynthetic(a, 256<<10))
				ok(t, c.Launch(launch))
			}
			for i := 0; i < 10; i++ {
				pair()
			}
			avg := testing.AllocsPerRun(1000, pair)
			t.Logf("copy + launch: %.0f allocs/pair", avg)
			if avg > 0 {
				t.Errorf("copy + launch allocates %.0f objects/pair, budget 0", avg)
			}
		})
	}
}

// TestSessionAllocs pins what whole sessions allocate, setup and
// teardown included, which the steady-state launch budget above cannot
// see: a buffer grown on each session's first transfer costs one object
// per session and fails here. One session is pipe-dispatch's (register,
// tenant, two mallocs, 20 × (copy, launch), two frees, exit); the other
// run is an inter-swap pair, two sessions whose buffers evict each other
// on every launch. The offloaded session is the dispatch session arriving
// at a head whose only vGPU a ballast session holds, so the head proxies
// it to a peer over loopback TCP (§4.7); both nodes' allocations count.
// The pins are the measured counts; lower them with the change that
// earns it.
func TestSessionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     core.Config
		pin     float64
		offload bool
		run     func(t *testing.T, rt *core.Runtime)
	}{
		{"dispatch session", core.Config{}, 23, false, dispatchSession},
		{"inter-swap pair", core.Config{VGPUsPerDevice: 2, MinVictimIdle: -1}, 43, false, interSwapPair},
		{"offloaded session", core.Config{VGPUsPerDevice: 1, OffloadThreshold: 1}, 60, true, dispatchSession},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var peerDone chan struct{}
			if tc.offload {
				tc.cfg.PeerDial, peerDone = tcpPeer(t)
			}
			node, err := NewNode("node", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			run := func() { tc.run(t, node.RT) }
			if tc.offload {
				ballast := frontend.Connect(node.Dial())
				defer ballast.Close()
				p, err := ballast.Malloc(4096)
				ok(t, err)
				ok(t, ballast.RegisterFatBinary(sessionBinary))
				ok(t, ballast.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}))
				run = func() { tc.run(t, node.RT); <-peerDone }
			}
			for i := 0; i < 10; i++ {
				run() // warm the maps, free lists, device scratch and wire pool
			}
			pin := tc.pin
			if tc.offload && raceEnabled {
				pin += 2 * 5 // a dropped wire costs its five objects again, on each end
			}
			got := testing.AllocsPerRun(100, run)
			t.Logf("%s: %.0f allocs", tc.name, got)
			if got > pin {
				t.Errorf("%s allocates %.0f objects, pinned at %.0f", tc.name, got, pin)
			}
			// 10 warm-up runs, AllocsPerRun's own warm-up and 100 measured.
			if off := node.RT.Metrics().Offloaded; tc.offload && off != 111 {
				t.Errorf("%d of 111 sessions offloaded", off)
			}
		})
	}
}

// tcpPeer starts a peer node serving a loopback TCP listener. It returns
// a dialer for it and a channel that receives once each time the peer
// has torn a session down.
func tcpPeer(t *testing.T) (func() (transport.Conn, error), chan struct{}) {
	peer, err := NewNode("peer", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every session a test runs (111), so a peer goroutine
	// finishing after the test stopped receiving never blocks.
	done := make(chan struct{}, 128)
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				peer.RT.Serve(sc)
				done <- struct{}{}
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		peer.Close()
	})
	return func() (transport.Conn, error) { return transport.Dial(l.Addr()) }, done
}

var sessionBinary = api.FatBinary{ID: "sessions", Kernels: []api.KernelMeta{{Name: "k", BaseTime: time.Microsecond}}}

// openSession connects a client to rt over a fresh pipe. The returned
// exit closes the session and waits until rt has torn its context down,
// so a measured run holds the whole session.
func openSession(t *testing.T, rt *core.Runtime) (c *frontend.Client, exit func()) {
	conn, sc := transport.Pipe()
	done := make(chan struct{})
	go func() {
		rt.HandleConn(sc)
		close(done)
	}()
	c = frontend.Connect(conn)
	ok(t, c.RegisterFatBinary(sessionBinary))
	ok(t, c.SetTenant("t"))
	return c, func() {
		ok(t, c.Close())
		<-done
	}
}

func dispatchSession(t *testing.T, rt *core.Runtime) {
	c, exit := openSession(t, rt)
	a, err := c.Malloc(256 << 10)
	ok(t, err)
	b, err := c.Malloc(256 << 10)
	ok(t, err)
	launch := api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{a, b}}
	for i := 0; i < 20; i++ {
		ok(t, c.MemcpyHDSynthetic(a, 256<<10))
		ok(t, c.Launch(launch))
	}
	ok(t, c.Free(a))
	ok(t, c.Free(b))
	exit()
}

func interSwapPair(t *testing.T, rt *core.Runtime) {
	var cs [2]*frontend.Client
	var exits [2]func()
	var launches [2]api.LaunchCall
	for k := range cs {
		cs[k], exits[k] = openSession(t, rt)
		p, err := cs[k].Malloc(1600 << 20) // two do not fit a C2050
		ok(t, err)
		launches[k] = api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}
	}
	for i := 0; i < 20; i++ {
		for k := range cs {
			ok(t, cs[k].Launch(launches[k]))
		}
	}
	for k := range cs {
		ok(t, cs[k].Free(launches[k].PtrArgs[0]))
		exits[k]()
	}
}

func ok(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
