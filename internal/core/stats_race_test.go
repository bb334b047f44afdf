package core

import (
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// TestStatsConcurrent hammers the stats snapshot path while
// launches, device failures and restores are in flight. Run under
// -race it proves the exposition path (StatsCall, /metrics, gvrt-top)
// never tears the counters it reads; the assertions pin the snapshot
// invariants operators rely on: per-device vGPU occupancy within
// bounds and monotone counters/histograms between polls.
func TestStatsConcurrent(t *testing.T) {
	env := newEnv(t, Config{Trace: trace.NewRecorder(512)},
		smallSpec(1<<20, 1), smallSpec(1<<20, 1))

	const workers = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := env.client()
			defer c.Close()
			if err := c.RegisterFatBinary(testBinary()); err != nil {
				t.Error(err)
				return
			}
			p, err := c.Malloc(4 << 10)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Failures mid-launch are the point of the test; any
				// error code is acceptable as long as the snapshot
				// invariants below hold.
				_ = c.Launch(api.LaunchCall{Kernel: "noop"})
				_ = c.MemcpyHD(p, []byte{1, 2, 3})
			}
		}()
	}

	// Failure injector: kill and revive the devices under the load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			env.rt.FailDevice(i % 2)
			env.crt.Device(i % 2).Restore()
		}
	}()

	// Poll until the workers have produced real launch traffic (or the
	// iteration cap trips), checking the invariants at every poll. The
	// tiny sleep keeps the poller overlapping the injector instead of
	// burning through its polls before the workers are scheduled.
	var prev api.RuntimeStats
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		st := env.rt.Metrics()
		for _, d := range st.Devices {
			if d.ActiveVGPUs < 0 || d.ActiveVGPUs > d.VGPUs {
				t.Fatalf("poll %d: device %d ActiveVGPUs = %d, want within [0,%d]",
					i, d.Index, d.ActiveVGPUs, d.VGPUs)
			}
		}
		if st.CallsServed < prev.CallsServed {
			t.Fatalf("poll %d: CallsServed went backwards: %d -> %d", i, prev.CallsServed, st.CallsServed)
		}
		if st.Binds < prev.Binds {
			t.Fatalf("poll %d: Binds went backwards: %d -> %d", i, prev.Binds, st.Binds)
		}
		if st.DeviceFailures < prev.DeviceFailures {
			t.Fatalf("poll %d: DeviceFailures went backwards: %d -> %d", i, prev.DeviceFailures, st.DeviceFailures)
		}
		cur := st.Histograms["call.cudaLaunch"]
		old := prev.Histograms["call.cudaLaunch"]
		if cur.Count < old.Count {
			t.Fatalf("poll %d: launch histogram count went backwards: %d -> %d", i, old.Count, cur.Count)
		}
		prev = st
		if (i >= 200 && cur.Count > 50) || time.Now().After(deadline) {
			break
		}
		if i%10 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()

	st := env.rt.Metrics()
	if st.CallsServed == 0 {
		t.Error("no calls served under load")
	}
	if st.Histograms["call.cudaLaunch"].Count == 0 {
		t.Error("launch histogram empty after concurrent launches")
	}
}
