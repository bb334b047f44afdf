package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
)

// TestSoakShardedRuntime is the concurrency soak for the per-device
// sharding refactor (DESIGN.md §11), meant to run under -race: N
// tenants hammer M devices with Malloc / MemcpyHD / Launch / MemcpyDH /
// Free epochs whose aggregate footprint oversubscribes device memory
// (forcing inter-application swaps every epoch), while the main
// goroutine kills and restores a device mid-storm. It asserts:
//
//   - no deadlock (the test completes) and no data corruption (every
//     epoch reads back exactly what its kernels computed, across
//     device death and replay);
//   - memory accounting is conserved: at every audited instant the
//     swap-area occupancy is at least the sum of per-context usage
//     (reserve-before-publish), and both drop to zero after teardown;
//   - device memory is fully returned once every tenant exits.
func TestSoakShardedRuntime(t *testing.T) {
	const (
		tenants  = 12
		epochs   = 8
		bufBytes = 600 << 10 // two co-bound tenants overflow a 1 MiB device
	)
	env := newEnv(t, Config{VGPUsPerDevice: 2, MinVictimIdle: -1},
		smallSpec(1<<20, 1), smallSpec(1<<20, 0.8), smallSpec(1<<20, 0.6))

	// Accounting audit: hostUsed is reserved before a context's usage is
	// published and released after it is retracted, so the global
	// occupancy may transiently exceed the per-context sum but never
	// undershoot it. The audit reads the usages before the occupancy, so
	// a Free landing in between can make a single read undershoot: only
	// a violation that persists across retries is a real leak.
	audit := func() error {
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			env.rt.mu.Lock()
			ctxs := make([]*Context, 0, len(env.rt.ctxs))
			for _, c := range env.rt.ctxs {
				ctxs = append(ctxs, c)
			}
			env.rt.mu.Unlock()
			var sum uint64
			for _, c := range ctxs {
				sum += env.rt.mm.UsageOf(c.id)
			}
			used := env.rt.mm.Stats().HostBytesInUse
			if used >= sum {
				return nil
			}
			err = fmt.Errorf("host occupancy %d below per-context sum %d", used, sum)
			time.Sleep(100 * time.Microsecond)
		}
		return err
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, tenants+1)

	// Continuous conservation audits while the storm runs. The auditor
	// has its own done-channel: it must outlive the tenant WaitGroup.
	auditDone := make(chan struct{})
	go func() {
		defer close(auditDone)
		for !stop.Load() {
			if err := audit(); err != nil {
				errs <- err
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := env.client()
			defer c.Close()
			if err := c.RegisterFatBinary(testBinary()); err != nil {
				errs <- fmt.Errorf("tenant %d: register: %w", id, err)
				return
			}
			seed := make([]byte, 16)
			for j := range seed {
				seed[j] = byte(id + j)
			}
			for e := 0; e < epochs; e++ {
				p, err := c.Malloc(bufBytes)
				if err != nil {
					errs <- fmt.Errorf("tenant %d epoch %d: malloc: %w", id, e, err)
					return
				}
				if err := c.MemcpyHD(p, seed); err != nil {
					errs <- fmt.Errorf("tenant %d epoch %d: h2d: %w", id, e, err)
					return
				}
				for k := 0; k < 3; k++ {
					err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{16}})
					if err != nil {
						errs <- fmt.Errorf("tenant %d epoch %d: launch %d: %w", id, e, k, err)
						return
					}
					// Yield while holding residency: on GOMAXPROCS=1 the
					// scaled model sleeps return without a scheduling point,
					// so without this the tenants can serialize and never
					// contend for the same device's memory.
					time.Sleep(50 * time.Microsecond)
				}
				got, err := c.MemcpyDH(p, 16)
				if err != nil {
					errs <- fmt.Errorf("tenant %d epoch %d: d2h: %w", id, e, err)
					return
				}
				for j := range seed {
					if got[j] != seed[j]+3 {
						errs <- fmt.Errorf("tenant %d epoch %d: byte %d = %d, want %d",
							id, e, j, got[j], seed[j]+3)
						return
					}
				}
				if err := c.Free(p); err != nil {
					errs <- fmt.Errorf("tenant %d epoch %d: free: %w", id, e, err)
					return
				}
			}
		}(i)
	}

	// Kill device 0 mid-storm and restore it shortly after; the health
	// monitor must re-admit it while the tenants keep making progress on
	// the survivors.
	time.Sleep(2 * time.Millisecond)
	env.rt.FailDevice(0)
	time.Sleep(2 * time.Millisecond)
	env.rt.deviceList()[0].dev.Restore()

	wg.Wait()
	stop.Store(true)
	<-auditDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The storm must actually have exercised the cross-shard swap path.
	m := env.rt.Metrics()
	if m.InterAppSwaps == 0 && m.UnbindRetries == 0 {
		t.Error("soak drove no swap or unbind traffic; the oversubscription tested nothing")
	}
	if m.DeviceFailures == 0 {
		t.Error("injected device failure was not observed")
	}

	// Re-admission: device 0 must come back healthy.
	deadline := time.Now().Add(5 * time.Second)
	for !env.rt.deviceList()[0].healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("device 0 was not re-admitted after restore")
		}
		time.Sleep(time.Millisecond)
	}

	// Conservation after teardown: every tenant exited, so the swap area
	// must be empty and healthy devices fully returned (minus the fixed
	// per-vGPU context reservation).
	if used := env.rt.mm.Stats().HostBytesInUse; used != 0 {
		t.Errorf("swap area holds %d bytes after all tenants exited", used)
	}
	for _, ds := range env.rt.deviceList() {
		if !ds.healthy.Load() {
			continue
		}
		want := ds.dev.Capacity() - uint64(len(ds.slots()))*1024
		if got := ds.dev.Available(); got != want {
			t.Errorf("device %d: available %d after teardown, want %d", ds.index, got, want)
		}
	}
}
