package core

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// chaosSeed returns the fault-plan seed: GVRT_CHAOS_SEED when set (the
// replay knob — see EXPERIMENTS.md), a fixed default otherwise.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("GVRT_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GVRT_CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return 20260804
}

// chaosPlan is the storm the chaos test and gvrt-chaos driver run under:
// two of the three boot devices die at fixed kernel counts (the third
// stays clean so forward progress is guaranteed), the hot-added
// replacement dies later too, DMA is sporadically slow, the dispatcher
// sporadically stalls, and a bounded burst of device allocations is
// denied. No corruption rules: data integrity must survive everything
// this plan throws.
func chaosPlan(seed int64) faultinject.Plan {
	return faultinject.Plan{
		Name: "chaos-storm",
		Seed: seed,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointDeviceExec, Label: "gpu0", AtNth: 8, Action: faultinject.ActFailDevice},
			{Point: faultinject.PointDeviceExec, Label: "gpu1", AtNth: 20, Action: faultinject.ActFailDevice},
			{Point: faultinject.PointDeviceExec, Label: "gpu3", AtNth: 25, Action: faultinject.ActFailDevice},
			{Point: faultinject.PointDeviceDMA, Prob: 0.05, Action: faultinject.ActDelay, Delay: 2 * time.Millisecond},
			{Point: faultinject.PointDeviceMalloc, Prob: 0.02, MaxFires: 3, Action: faultinject.ActError},
			{Point: faultinject.PointDispatch, Prob: 0.02, Action: faultinject.ActDelay, Delay: time.Millisecond},
		},
	}
}

// TestChaos runs a storm of concurrent applications against a runtime
// while the fault plane fails devices, stalls DMA and the dispatcher,
// and denies allocations — then checks the global invariants:
//
//   - every job either completes with correct data or fails with a
//     clean resource error (never a corruption, hang, or unexpected
//     code);
//   - after everything exits, no device memory is leaked;
//   - the runtime serves a fresh client normally afterwards;
//   - the fired fault schedule replays exactly from the plan seed.
//
// A failing run logs the seed; GVRT_CHAOS_SEED reproduces it.
func TestChaos(t *testing.T) {
	const (
		jobs       = 32
		kernelsPer = 6
	)
	seed := chaosSeed(t)
	plan := chaosPlan(seed)
	plane := faultinject.New(plan)
	t.Logf("chaos plan %q seed %d (GVRT_CHAOS_SEED=%d reproduces this run)", plan.Name, seed, seed)

	env := newEnv(t, Config{VGPUsPerDevice: 2, AutoCheckpoint: 5 * time.Millisecond, Faults: plane},
		smallSpec(1<<20, 1), smallSpec(1<<20, 0.5), smallSpec(1<<20, 0.8))

	var completed, failed atomic.Int64
	var wg sync.WaitGroup

	// Replacement hardware: once the plane has killed a device, hot-add
	// a fresh one (which the runtime arms against the same plane — the
	// gpu3 rule above kills it too, later).
	stop := make(chan struct{})
	var opsWg sync.WaitGroup
	opsWg.Add(1)
	go func() {
		defer opsWg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if env.rt.Metrics().DeviceFailures >= 1 {
				d := gpu.NewDevice(3, smallSpec(1<<20, 1), env.clock)
				if _, err := env.rt.AddDevice(d); err != nil {
					t.Errorf("AddDevice: %v", err)
				}
				return
			}
		}
	}()

	// Each job gets its own forked RNG stream, so workload randomness is
	// deterministic per (seed, job) no matter how goroutines interleave.
	baseRNG := sim.NewRNG(seed)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rng := baseRNG.Fork(fmt.Sprintf("job%d", j))
			c := env.client()
			defer c.Close()
			if err := c.RegisterFatBinary(testBinary()); err != nil {
				failed.Add(1)
				return
			}
			// Each job carries 4 bytes of real data plus a randomized
			// chunk of modeled memory to create pressure.
			p, err := c.Malloc(uint64(32+rng.Intn(64)) << 10)
			if err != nil {
				failed.Add(1)
				return
			}
			seedByte := byte(j)
			if err := c.MemcpyHD(p, []byte{seedByte, seedByte, seedByte, seedByte}); err != nil {
				failed.Add(1)
				return
			}
			for k := 0; k < kernelsPer; k++ {
				if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}); err != nil {
					// Acceptable only as a clean resource error: the node
					// ran out of devices or memory mid-call.
					switch api.Code(err) {
					case api.ErrNoDevice, api.ErrDeviceUnavailable, api.ErrMemoryAllocation, api.ErrSwapAllocation:
					default:
						t.Errorf("job %d kernel %d: unexpected error %v", j, k, err)
					}
					failed.Add(1)
					return
				}
			}
			out, err := c.MemcpyDH(p, 4)
			if err != nil {
				failed.Add(1)
				return
			}
			want := seedByte + kernelsPer
			for i := 0; i < 4; i++ {
				if out[i] != want {
					t.Errorf("job %d: data = %v, want %d each (CORRUPTION)", j, out, want)
					failed.Add(1)
					return
				}
			}
			completed.Add(1)
		}(j)
	}

	// The never-hangs invariant, enforced: a wedged storm fails loudly
	// instead of tripping the go test timeout ten minutes later.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("chaos run hung; reproduce with GVRT_CHAOS_SEED=%d", seed)
	}
	close(stop)
	opsWg.Wait()
	env.wg.Wait()

	t.Logf("chaos: %d completed, %d failed-clean; metrics: %+v",
		completed.Load(), failed.Load(), env.rt.Metrics())
	t.Logf("fault post-mortem:\n%s", plane)
	if completed.Load() == 0 {
		t.Error("no job survived the chaos; recovery is not working")
	}

	// The plan must actually have bitten: at least one device death went
	// through the plane (gpu0 dies after 8 kernels, far fewer than the
	// storm executes).
	schedule := plane.Schedule()
	devFails := 0
	for _, f := range schedule {
		if f.Action == faultinject.ActFailDevice {
			devFails++
		}
	}
	if devFails == 0 {
		t.Error("fault plane fired no device failure; the storm tested nothing")
	}

	// No leaks on healthy devices: everything the jobs held is back.
	env.rt.mu.Lock()
	var leaks []string
	for _, ds := range env.rt.devs {
		if !ds.healthy.Load() {
			continue
		}
		want := ds.dev.Capacity() - uint64(len(ds.slots()))*1024
		if got := ds.dev.Available(); got != want {
			leaks = append(leaks, fmt.Sprintf("dev %d: %d != %d", ds.index, got, want))
		}
	}
	env.rt.mu.Unlock()
	if len(leaks) > 0 {
		t.Errorf("device memory leaked after chaos: %v", leaks)
	}

	// The runtime still serves new work.
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}}); err != nil {
		t.Fatalf("post-chaos launch: %v", err)
	}

	// Seed replay: feed a fresh plane the same per-hook occurrence
	// counts and require the identical per-hook fault schedule. This is
	// the property that makes a CI chaos failure reproducible locally
	// from nothing but the seed.
	if err := plane.Replay(); err != nil {
		t.Error(err)
	}
}
