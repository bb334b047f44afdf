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

// TestSessionAllocs pins what whole sessions allocate, setup and
// teardown included, which the steady-state launch budget above cannot
// see: a buffer grown on each session's first transfer costs one object
// per session and fails here. One session is pipe-dispatch's (register,
// tenant, two mallocs, 20 × (copy, launch), two frees, exit); the other
// run is an inter-swap pair, two sessions whose buffers evict each other
// on every launch. Both run the default configuration, and the pins are
// their measured counts; lower them with the change that earns it.
func TestSessionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		pin  float64
		run  func(t *testing.T, rt *core.Runtime)
	}{
		{"dispatch session", core.Config{}, 75, dispatchSession},
		{"inter-swap pair", core.Config{VGPUsPerDevice: 2, MinVictimIdle: -1}, 97, interSwapPair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, err := NewNode("node", sim.NewClock(1e-9), []gpu.Spec{gpu.TeslaC2050}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			run := func() { tc.run(t, node.RT) }
			for i := 0; i < 10; i++ {
				run() // warm the maps, free lists and device scratch
			}
			got := testing.AllocsPerRun(100, run)
			t.Logf("%s: %.0f allocs", tc.name, got)
			if got > tc.pin {
				t.Errorf("%s allocates %.0f objects, pinned at %.0f", tc.name, got, tc.pin)
			}
		})
	}
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
