package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/gpu"
	"gvrt/internal/trace"
)

// TestLastActiveStampedAtCallEnd: a context's last-active stamp is the
// end of its latest call, not its start. After a kernel whose model
// time dwarfs the wall gap, the stamp sits at least that kernel's time
// after the launch was sent; stamped at the call's start, a context
// that has just finished the kernel would look idle for the kernel's
// whole length, and victim selection (§4.5) could take it between two
// back-to-back calls.
func TestLastActiveStampedAtCallEnd(t *testing.T) {
	const kernel = 100000 * time.Second // 10 ms of wall time at 1e-7
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	s := env.session(t)
	long := api.FatBinary{ID: "long-bin", Kernels: []api.KernelMeta{{Name: "long", BaseTime: kernel}}}
	if err := s.RegisterFatBinary(long); err != nil {
		t.Fatal(err)
	}
	sent := env.clock.Now()
	if err := s.Launch(api.LaunchCall{Kernel: "long"}); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(s.ctx.lastActiveNS.Load()) - sent; got < kernel {
		t.Errorf("last active %v after the launch was sent, want at least the kernel's %v", got, kernel)
	}
}

// TestInstrumentsAgree runs a scripted pair of tenants that displace
// each other on one device (§4.5 inter-application swap, two entries
// per swap-out) and checks that the instruments sharing a reading, or
// derived from one another, agree exactly. The transfer and swap
// histograms observe the model time the device charged, so their sums
// are exact against the device model and the same at every clock scale.
func TestInstrumentsAgree(t *testing.T) {
	const buf = 300 << 10
	var sums [][3]int64
	for _, scale := range []float64{1e-7, 1e-5} {
		env := newEnvAt(t, scale, Config{VGPUsPerDevice: 2, MinVictimIdle: -1}, smallSpec(1<<20, 1))
		h := instrumentsAgree(t, env, buf)
		dev := env.crt.Device(0)
		st := dev.Stats()
		swapped := env.rt.Metrics().Memory.SwapOps
		for _, c := range []struct {
			name string
			sum  int64
			want time.Duration
		}{
			{"h2d", h["h2d"].Sum, time.Duration(st.H2DOps) * dev.DMATime(buf)},
			{"d2h", h["d2h"].Sum, time.Duration(st.D2HOps) * dev.DMATime(buf)},
			{"swap_duration", h["swap_duration"].Sum, time.Duration(swapped) * gpu.FreeTime},
		} {
			if time.Duration(c.sum) != c.want || c.want == 0 {
				t.Errorf("scale %g: %s sum %v, want %v charged by the model", scale, c.name, time.Duration(c.sum), c.want)
			}
		}
		sums = append(sums, [3]int64{h["h2d"].Sum, h["d2h"].Sum, h["swap_duration"].Sum})
	}
	if sums[0] != sums[1] {
		t.Errorf("h2d, d2h and swap_duration sums %v at scale 1e-7 but %v at 1e-5", sums[0], sums[1])
	}
}

// instrumentsAgree runs TestInstrumentsAgree's script on env, with
// buffers of buf bytes, checks the instruments that count the same
// thing, and returns the runtime's histograms.
func instrumentsAgree(t *testing.T, env *testEnv, buf uint64) map[string]trace.HistSnapshot {
	t.Helper()
	const rounds = 6
	var sessions [2]*session
	var launches [2]api.LaunchCall
	scripted := int64(0)
	for k, tenant := range []string{"a", "b"} {
		s := env.session(t) // RegisterFatBinary and SessionID
		if err := s.SetTenant(tenant); err != nil {
			t.Fatal(err)
		}
		launches[k] = api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{s.buffer(t, buf, 1), s.buffer(t, buf, 2)}}
		sessions[k] = s
		scripted += 7 // the two above, SetTenant, two Malloc+MemcpyHD pairs
	}
	for r := 0; r < rounds; r++ {
		for k, s := range sessions {
			if err := s.Launch(launches[k]); err != nil {
				t.Fatal(err)
			}
			scripted++
		}
	}

	m := env.rt.Metrics()
	h := m.Histograms
	if m.InterAppSwaps < 2*rounds-1 || m.IntraAppSwaps != 0 {
		t.Fatalf("inter-app swaps %d, intra-app %d: the displacing path did not run", m.InterAppSwaps, m.IntraAppSwaps)
	}
	if !reflect.DeepEqual(h["launch_latency"], h["call.cudaLaunch"]) || h["launch_latency"].Count != 2*rounds {
		t.Errorf("launch_latency %+v, call.cudaLaunch %+v: want one histogram of %d launches",
			h["launch_latency"], h["call.cudaLaunch"], 2*rounds)
	}
	var calls int64
	for k, s := range h {
		if strings.HasPrefix(k, "call.") {
			calls += s.Count
		}
	}
	if m.CallsServed != calls || calls != scripted {
		t.Errorf("CallsServed %d, call.* counts %d, scripted calls %d: want all equal", m.CallsServed, calls, scripted)
	}
	// Every swap-out here is one inter-application vacate of two entries.
	if got := h["swap_duration"].Count; got != m.InterAppSwaps {
		t.Errorf("swap_duration count %d, want one per swap-out submission (%d)", got, m.InterAppSwaps)
	}
	if got := h["swap_bytes"].Count; got != m.Memory.SwapOps || got != 2*m.InterAppSwaps {
		t.Errorf("swap_bytes count %d, SwapOps %d: want one per entry (%d)", got, m.Memory.SwapOps, 2*m.InterAppSwaps)
	}
	for _, tenant := range []string{"a", "b"} {
		u := m.Tenants[tenant]
		if u.Launch.Count != u.Launches || u.Launches != rounds {
			t.Errorf("tenant %s: Launch histogram count %d, launches %d, want %d", tenant, u.Launch.Count, u.Launches, rounds)
		}
	}
	return h
}
