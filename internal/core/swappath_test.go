package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/trace"
)

// displacingPair opens two sessions on one C2050 whose 1600 MiB buffers
// cannot share the device (swap-pressure's inter-application geometry)
// and returns a function that launches once on each: every launch finds
// the other session in a CPU phase, swaps it out and binds.
func displacingPair(t *testing.T, cfg Config) (*testEnv, func()) {
	t.Helper()
	cfg.VGPUsPerDevice, cfg.MinVictimIdle = 2, -1
	env := newEnv(t, cfg, gpu.TeslaC2050)
	var cls [2]*frontend.Client
	var calls [2]api.LaunchCall
	for k := range cls {
		cls[k] = env.client()
		t.Cleanup(func() { cls[k].Close() })
		if err := cls[k].RegisterFatBinary(testBinary()); err != nil {
			t.Fatal(err)
		}
		p, err := cls[k].Malloc(1600 << 20)
		if err != nil {
			t.Fatal(err)
		}
		calls[k] = api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{p}}
	}
	return env, func() {
		for k := range cls {
			if err := cls[k].Launch(calls[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInterSwapLaunchAllocBudget pins the steady-state cost of a launch
// that must displace a co-tenant (§4.5 inter-application swap): bind,
// victim selection, the victim's whole-table swap-out, the device
// allocator's span fit and the restore all reuse their buffers, so what
// is left is the client boxing the call — it was 20 objects per launch
// before.
func TestInterSwapLaunchAllocBudget(t *testing.T) {
	env, round := displacingPair(t, Config{})
	for i := 0; i < 8; i++ {
		round() // warm the scratch, the free lists and the predictor
	}
	before := env.rt.Metrics()
	perLaunch := testing.AllocsPerRun(100, round) / 2
	after := env.rt.Metrics()
	if got := after.InterAppSwaps - before.InterAppSwaps; got != 2*101 {
		t.Fatalf("%d inter-application swaps over 202 launches: the path under test did not run", got)
	}
	t.Logf("displacing launch: %.2f allocs", perLaunch)
	if perLaunch > 2 {
		t.Errorf("displacing launch allocates %.2f objects, budget 2", perLaunch)
	}
}

// TestSwapPathStillLogs is the other half of guarding the events: with
// only OnEvent armed, the bind and inter-swap events still reach it.
func TestSwapPathStillLogs(t *testing.T) {
	var mu sync.Mutex
	seen := map[trace.Kind]int{}
	_, round := displacingPair(t, Config{OnEvent: func(e trace.Event) {
		mu.Lock()
		seen[e.Kind]++
		mu.Unlock()
	}})
	round()
	round()
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []trace.Kind{trace.KindBind, trace.KindInterSwap} {
		if seen[want] == 0 {
			t.Errorf("OnEvent saw no %s event: %v", want, seen)
		}
	}
}

// TestBindingLostBeforeUse is the regression test for the launch path's
// nil-vGPU crash: a device failure clears ctx.vgpu without the context's
// lock, so a binding can vanish between the bind and its first use.
// Before, launch and the replay loop re-loaded the binding after
// binding, got nil and dereferenced it (ensureResident), killing the
// process; now bind hands back the slot it bound, the dead device
// answers ErrDeviceUnavailable, and the ordinary recovery path takes
// over. The bind event is the injection point: OnEvent runs inside
// onBind, after the binding is published and before it is used.
func TestBindingLostBeforeUse(t *testing.T) {
	for _, tc := range []struct {
		name       string
		devices    int
		failOnBind int32 // how many fresh bindings lose their device at once
		failFirst  bool  // kill the first device from outside, after one launch
		failures   int64 // device failures the scenario adds up to
	}{
		{"launch", 2, 1, false, 1},
		{"replay", 4, 2, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var env *testEnv
			var armed atomic.Bool
			var left atomic.Int32
			left.Store(tc.failOnBind)
			onEvent := func(e trace.Event) {
				if e.Kind != trace.KindBind || !armed.Load() || left.Add(-1) < 0 {
					return
				}
				env.rt.FailDevice(e.Device)
			}
			specs := make([]gpu.Spec, tc.devices)
			for i := range specs {
				specs[i] = smallSpec(1<<20, 1)
			}
			env = newEnv(t, Config{OnEvent: onEvent}, specs...)
			c := env.client()
			defer c.Close()
			if err := c.RegisterFatBinary(testBinary()); err != nil {
				t.Fatal(err)
			}
			p, err := c.Malloc(16)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.MemcpyHD(p, []byte{10, 20, 30, 40}); err != nil {
				t.Fatal(err)
			}
			inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}
			want := byte(11)
			if tc.failFirst {
				// One committed kernel in the replay log, then its device
				// dies: the next launch recovers, and the devices that
				// recovery binds die under it too.
				if err := c.Launch(inc); err != nil {
					t.Fatal(err)
				}
				for _, d := range env.rt.Metrics().Devices {
					if d.ActiveVGPUs > 0 {
						env.rt.FailDevice(d.Index)
					}
				}
				want++
			}
			armed.Store(true)
			if err := c.Launch(inc); err != nil {
				t.Fatalf("launch over a lost binding: %v", err)
			}
			out, err := c.MemcpyDH(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != want {
				t.Errorf("byte 0 = %d, want %d", out[0], want)
			}
			if got := env.rt.Metrics().DeviceFailures; got != tc.failures {
				t.Errorf("device failures = %d: the injection did not fire as planned", got)
			}
		})
	}
}
