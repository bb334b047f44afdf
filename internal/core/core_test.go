package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/cudart"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// testEnv bundles a runtime over custom devices with helpers to open
// in-process clients.
type testEnv struct {
	t     *testing.T
	clock *sim.Clock
	crt   *cudart.Runtime
	rt    *Runtime
	wg    sync.WaitGroup
}

// smallSpec is a scaled-down GPU: 1 MiB of memory, reference speed.
func smallSpec(mem uint64, speed float64) gpu.Spec {
	return gpu.Spec{Name: "test-gpu", SMs: 4, CoresPerSM: 8, ClockMHz: 1000,
		MemBytes: mem, Speed: speed, BandwidthBps: 1 << 40}
}

// newEnv builds a runtime over the given device specs. The context
// reservation is shrunk to 1 KiB so tiny devices work.
func newEnv(t *testing.T, cfg Config, specs ...gpu.Spec) *testEnv {
	t.Helper()
	return newEnvAt(t, 1e-7, cfg, specs...) // 1 model s = 0.1 µs wall: instant
}

// newEnvAt is newEnv on a clock of the given scale.
func newEnvAt(t *testing.T, scale float64, cfg Config, specs ...gpu.Spec) *testEnv {
	t.Helper()
	clock := sim.NewClock(scale)
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	crt := cudart.New(clock, devs...)
	crt.SetLimits(1024, 0, 0)
	if cfg.CallOverhead == 0 {
		cfg.CallOverhead = -1 // no modeled overhead unless asked
	}
	if cfg.BindBackoff == 0 {
		cfg.BindBackoff = time.Millisecond
	}
	rt, err := New(crt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{t: t, clock: clock, crt: crt, rt: rt}
	t.Cleanup(func() {
		rt.Close()
		env.wg.Wait()
	})
	return env
}

// client opens an in-process connection served by the runtime.
func (e *testEnv) client() *frontend.Client {
	c, s := transport.Pipe()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.rt.Serve(s)
	}()
	return frontend.Connect(c)
}

// testBinary registers a deterministic vector-increment kernel so data
// flow is checkable end to end.
const testBinID = "core-test-bin"

func testBinary() api.FatBinary {
	return api.FatBinary{
		ID: testBinID,
		Kernels: []api.KernelMeta{
			{Name: "inc", BaseTime: time.Millisecond},
			{Name: "noop", BaseTime: time.Millisecond}, // no impl: timing only
			{Name: "slow", BaseTime: 10 * time.Second},
			{Name: "dyn", BaseTime: time.Millisecond, UsesDynamicAlloc: true},
		},
	}
}

func init() {
	api.RegisterKernelImpl(testBinID, "inc", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		n := int(scalars[0])
		for i := 0; i < n; i++ {
			buf[i]++
		}
		return nil
	})
}

func TestEndToEndDataFlow(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
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
	for i := 0; i < 3; i++ {
		if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.MemcpyDH(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{13, 23, 33, 43}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("result = %v, want %v", out, want)
		}
	}
}

// dupBinaries registers host implementations of kernel "k" in two
// binaries, dup-a adding 1 to its buffer's first byte and dup-b 3,
// and returns a constructor for binaries defining "k" with a given
// duration.
func dupBinaries(t *testing.T) func(id string, d time.Duration) api.FatBinary {
	for id, add := range map[string]byte{"dup-a": 1, "dup-b": 3} {
		api.RegisterKernelImpl(id, "k", func(mem api.KernelMemory, _ []uint64) error {
			buf, err := mem.Arg(0)
			if err == nil {
				buf[0] += add
			}
			return err
		})
		t.Cleanup(func() { api.RegisterKernelImpl(id, "k", nil) })
	}
	return func(id string, d time.Duration) api.FatBinary {
		return api.FatBinary{ID: id, Kernels: []api.KernelMeta{{Name: "k", BaseTime: d}}}
	}
}

// launchK launches "k" n times on p, checking that core timed each
// launch at want, and returns the buffer's first byte.
func launchK(t *testing.T, env *testEnv, c *frontend.Client, p api.DevPtr, n int, want time.Duration) byte {
	t.Helper()
	for i := 0; i < n; i++ {
		before := env.rt.Metrics().GPUTimeNS
		if err := c.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{p}}); err != nil {
			t.Fatal(err)
		}
		if got := time.Duration(env.rt.Metrics().GPUTimeNS - before); got != want {
			t.Fatalf("launch %d was timed at %v, want %v", i+1, got, want)
		}
	}
	out, err := c.MemcpyDH(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// TestKernelResolvesToFirstRegisteredBinary: a kernel name two binaries
// define resolves to the first-registered one on every launch, in both
// layers — core times the launch from that binary's metadata and cudart
// runs that binary's host implementation — and a binary registered
// again under its ID keeps its place.
func TestKernelResolvesToFirstRegisteredBinary(t *testing.T) {
	bin := dupBinaries(t)
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	for _, fb := range []api.FatBinary{bin("dup-a", time.Millisecond), bin("dup-b", time.Second)} {
		if err := c.RegisterFatBinary(fb); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if got := launchK(t, env, c, p, 32, time.Millisecond); got != 32 {
		t.Fatalf("buffer = %d after 32 launches; want dup-a's implementation each time", got)
	}
	// Registered again while bound, with a new duration.
	if err := c.RegisterFatBinary(bin("dup-a", 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := launchK(t, env, c, p, 32, 2*time.Millisecond); got != 64 {
		t.Fatalf("buffer = %d after 64 launches; want dup-a's implementation each time", got)
	}
}

// TestKernelResolvesAmongBoundAppsBinaries: a vGPU's CUDA context
// serves one application after another, and a binary the previous one
// registered does not resolve for the next.
func TestKernelResolvesAmongBoundAppsBinaries(t *testing.T) {
	bin := dupBinaries(t)
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1))
	for i, fb := range []api.FatBinary{bin("dup-b", time.Second), bin("dup-a", time.Millisecond)} {
		func() {
			c := env.client()
			defer c.Close()
			if err := c.RegisterFatBinary(fb); err != nil {
				t.Fatal(err)
			}
			p, err := c.Malloc(16)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]byte{"dup-a": 32, "dup-b": 96}[fb.ID]
			if got := launchK(t, env, c, p, 32, fb.Kernels[0].BaseTime); got != want {
				t.Fatalf("application %d (%s): buffer = %d after 32 launches, want %d", i, fb.ID, got, want)
			}
		}()
	}
}

func TestDeviceCountReportsVGPUs(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 3}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	n, err := c.DeviceCount()
	if err != nil || n != 6 {
		t.Errorf("DeviceCount = %d, %v; want 6 (vGPUs, not physical)", n, err)
	}
	if err := c.SetDevice(42); err != nil {
		t.Errorf("SetDevice should be ignored, got %v", err)
	}
}

func TestBindingDelayedUntilFirstLaunch(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := env.rt.Metrics().Binds; got != 0 {
		t.Errorf("Binds = %d before first launch, want 0", got)
	}
	if env.crt.Device(0).Stats().H2DBytes != 0 {
		t.Error("data reached the device before any launch (deferral broken)")
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if got := env.rt.Metrics().Binds; got != 1 {
		t.Errorf("Binds = %d after first launch, want 1", got)
	}
}

func TestBadPointersRejectedBeforeDevice(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(42, []byte{1}); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("MemcpyHD to wild ptr err = %v", err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{99}}); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("Launch with wild ptr err = %v", err)
	}
	p, _ := c.Malloc(8)
	if err := c.MemcpyHD(p, make([]byte, 16)); !errors.Is(err, api.ErrSizeMismatch) {
		t.Errorf("oversized MemcpyHD err = %v", err)
	}
	// Nothing ever reached the device.
	if got := env.rt.Metrics().Binds; got != 0 {
		t.Errorf("bad ops caused %d binds", got)
	}
	if st := env.rt.Metrics().Memory; st.BadOpsRejected == 0 {
		t.Error("BadOpsRejected = 0")
	}
}

// TestTenantQuotaRefusesWrappingSize: a size that wraps bytes+size
// below the quota is refused, and the tenant's earlier charge stands.
func TestTenantQuotaRefusesWrappingSize(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	if err := env.rt.ApplyQuota("t", 0, 1000); err != nil {
		t.Fatal(err)
	}
	c := env.client()
	defer c.Close()
	if err := c.SetTenant("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Malloc(900); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Malloc(1<<64 - 50); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Errorf("Malloc(2^64-50) err = %v, want ErrQuotaExceeded", err)
	}
	if _, bytes := env.rt.TenantUsage("t"); bytes != 900 {
		t.Errorf("tenant bytes = %d after the refusal, want 900", bytes)
	}
	if _, err := c.Malloc(200); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Errorf("Malloc(200) over a 1000-byte quota holding 900 err = %v, want ErrQuotaExceeded", err)
	}
}

func TestUnknownKernel(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.Launch(api.LaunchCall{Kernel: "nope"}); !errors.Is(err, api.ErrNotRegistered) {
		t.Errorf("launch of unknown kernel err = %v", err)
	}
}

func TestWorkingSetTooBigForAnyDevice(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(2 << 20) // exceeds the 1 MiB device
	if err != nil {
		t.Fatal(err) // virtual allocation itself succeeds
	}
	err = c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}})
	if !errors.Is(err, api.ErrMemoryAllocation) {
		t.Errorf("oversized working set launch err = %v, want ErrMemoryAllocation", err)
	}
}

// TestIntraAppSwapEndToEnd is the §4.5 three-matrix walk-through driven
// through the full stack: per-kernel working sets fit the device but
// the application's total footprint does not.
func TestIntraAppSwapEndToEnd(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1))
	intraSwapWalk(t, env)
	m := env.rt.Metrics()
	if m.IntraAppSwaps == 0 {
		t.Errorf("IntraAppSwaps = 0, want > 0")
	}
	if m.InterAppSwaps != 0 {
		t.Errorf("InterAppSwaps = %d, want 0 (single app)", m.InterAppSwaps)
	}
}

// intraSwapWalk runs one application whose kernels each need two of
// three buffers that do not fit together, so the second kernel's
// binding swaps out an entry of the first's.
func intraSwapWalk(t *testing.T, env *testEnv) {
	t.Helper()
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	// Device: 1 MiB minus 1 KiB reservation per vGPU. Three buffers of
	// 384 KiB: any two fit, three don't.
	const size = 384 << 10
	var bufs [3]api.DevPtr
	for i := range bufs {
		p, err := c.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = p
	}
	if err := c.MemcpyHDSynthetic(bufs[0], size); err != nil {
		t.Fatal(err)
	}
	// kernel 1 uses A,B; kernel 2 uses B,C.
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{bufs[0], bufs[1]}, Scalars: []uint64{0}}); err != nil {
		t.Fatalf("kernel 1: %v", err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{bufs[1], bufs[2]}, Scalars: []uint64{0}}); err != nil {
		t.Fatalf("kernel 2: %v", err)
	}
}

// TestInterAppSwapEndToEnd: two applications whose footprints each fit
// the device but not together time-share one GPU via inter-application
// swap. The interleaving is driven deterministically: each app launches
// while the other sits in a CPU phase (idle connection).
func TestInterAppSwapEndToEnd(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1))

	a, b := env.client(), env.client()
	defer a.Close()
	defer b.Close()
	setup := func(c *frontend.Client) api.DevPtr {
		t.Helper()
		if err := c.RegisterFatBinary(testBinary()); err != nil {
			t.Fatal(err)
		}
		p, err := c.Malloc(600 << 10) // 600 KiB each; 2x600 KiB > 1 MiB
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := setup(a), setup(b)

	// idle lets "now - lastActive" exceed the victim-idle threshold;
	// at this clock scale a hair of wall time is hours of model time.
	idle := func() { time.Sleep(2 * time.Millisecond) }

	launch := func(c *frontend.Client, p api.DevPtr) error {
		return c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}})
	}
	if err := launch(a, pa); err != nil {
		t.Fatalf("a launch 1: %v", err)
	}
	idle()
	// b's launch cannot fit next to a's data: a (idle, in a "CPU
	// phase") must be swapped out.
	if err := launch(b, pb); err != nil {
		t.Fatalf("b launch: %v", err)
	}
	idle()
	// And back again.
	if err := launch(a, pa); err != nil {
		t.Fatalf("a launch 2: %v", err)
	}

	m := env.rt.Metrics()
	if m.InterAppSwaps < 2 {
		t.Errorf("InterAppSwaps = %d, want >= 2 (one each way)", m.InterAppSwaps)
	}
	if m.Memory.SwapOps == 0 {
		t.Errorf("SwapOps = 0, want > 0")
	}
	if m.Binds < 2 {
		t.Errorf("Binds = %d, want >= 2", m.Binds)
	}
}

// TestSerializationWithOneVGPU: with one vGPU per device, a second app
// waits for the first to finish (no time-sharing).
func TestSerializationWithOneVGPU(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1))
	var order []int
	var mu sync.Mutex

	run := func(id int, c *frontend.Client) error {
		defer c.Close()
		if err := c.RegisterFatBinary(testBinary()); err != nil {
			return err
		}
		p, err := c.Malloc(64)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}}); err != nil {
				return err
			}
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		return nil
	}

	c0 := env.client()
	c1 := env.client()
	errs := make(chan error, 2)
	go func() { errs <- run(0, c0) }()
	go func() { errs <- run(1, c1) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestFailureRecoveryPreservesData(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, []byte{100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	// The kernel's output (101) lives only on device 0. Kill it.
	var boundDev int
	for _, ds := range env.rt.deviceList() {
		if ds.activeVGPUs() > 0 {
			boundDev = ds.index
		}
	}
	env.rt.FailDevice(boundDev)

	// Next launch must recover on the other device and replay.
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatalf("launch after failure: %v", err)
	}
	out, err := c.MemcpyDH(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 102 {
		t.Errorf("data after recovery = %d, want 102 (both kernels applied exactly once)", out[0])
	}
	m := env.rt.Metrics()
	if m.Recoveries == 0 || m.Replays == 0 || m.DeviceFailures != 1 {
		t.Errorf("metrics after failure = %+v", m)
	}
}

func TestCheckpointAvoidsReplay(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(16)
	if err := c.MemcpyHD(p, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var boundDev int
	for _, ds := range env.rt.deviceList() {
		if ds.activeVGPUs() > 0 {
			boundDev = ds.index
		}
	}
	env.rt.FailDevice(boundDev)

	out, err := c.MemcpyDH(p, 1)
	if err != nil {
		t.Fatalf("read after failure: %v", err)
	}
	if out[0] != 6 {
		t.Errorf("data = %d, want 6", out[0])
	}
	if m := env.rt.Metrics(); m.Replays != 0 {
		t.Errorf("Replays = %d after checkpoint, want 0", m.Replays)
	}
}

func TestAutoCheckpointAfterLongKernel(t *testing.T) {
	env := newEnv(t, Config{AutoCheckpoint: 5 * time.Second}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(16)
	if err := c.Launch(api.LaunchCall{Kernel: "slow", PtrArgs: []api.DevPtr{p}}); err != nil {
		t.Fatal(err)
	}
	if got := env.rt.Metrics().Memory.Checkpoints; got == 0 {
		t.Error("no automatic checkpoint after a 10s kernel with 5s threshold")
	}
}

func TestMigrationToFasterGPU(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1, EnableMigration: true},
		smallSpec(1<<20, 1.0), smallSpec(1<<20, 0.3))

	// App A grabs the fast GPU with a long kernel; app B lands on the
	// slow one. When A exits, B should be migrated to the fast GPU.
	a := env.client()
	if err := a.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Malloc(64)
	if err := a.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pa}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}

	b := env.client()
	defer b.Close()
	if err := b.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pb, _ := b.Malloc(64)
	if err := b.MemcpyHD(pb, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	// A exits; its fast vGPU frees with nobody waiting → migrate B.
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.Metrics().Migrations == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if env.rt.Metrics().Migrations == 0 {
		t.Fatal("no migration after fast GPU freed")
	}
	// B keeps computing, now on the fast device, data intact.
	if err := b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	out, err := b.MemcpyDH(pb, 1)
	if err != nil || out[0] != 9 {
		t.Errorf("data after migration = %v, %v; want 9", out, err)
	}
}

func TestOffloadToPeer(t *testing.T) {
	// Node B: plenty of room.
	envB := newEnv(t, Config{}, smallSpec(1<<20, 1))
	// Node A: one vGPU, offload as soon as one context waits.
	envA := newEnv(t, Config{
		VGPUsPerDevice:   1,
		OffloadThreshold: 1,
		PeerDial: func() (transport.Conn, error) {
			c, s := transport.Pipe()
			envB.wg.Add(1)
			go func() {
				defer envB.wg.Done()
				envB.rt.Serve(s)
			}()
			return c, nil
		},
	}, smallSpec(1<<20, 1))

	var stop atomic.Bool
	hold := func(c *frontend.Client, done chan error) {
		defer c.Close()
		if err := c.RegisterFatBinary(testBinary()); err != nil {
			done <- err
			return
		}
		p, _ := c.Malloc(64)
		for !stop.Load() {
			if err := c.Launch(api.LaunchCall{Kernel: "slow", PtrArgs: []api.DevPtr{p}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}
	// Saturate node A: one bound, one waiting.
	d1, d2 := make(chan error, 1), make(chan error, 1)
	ca, cb := envA.client(), envA.client()
	go hold(ca, d1)
	go hold(cb, d2)
	defer stop.Store(true)

	// Wait for the queue to form.
	deadline := time.Now().Add(5 * time.Second)
	for envA.rt.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if envA.rt.QueueDepth() == 0 {
		t.Fatal("queue never formed")
	}

	// A third connection must be offloaded to node B. Route it through
	// HandleConn, the connection-manager entry point.
	pc, ps := transport.Pipe()
	envA.wg.Add(1)
	go func() {
		defer envA.wg.Done()
		envA.rt.HandleConn(ps)
	}()
	c3 := frontend.Connect(pc)
	if err := c3.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c3.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.MemcpyHD(p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c3.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	out, err := c3.MemcpyDH(p, 1)
	if err != nil || out[0] != 2 {
		t.Fatalf("offloaded app result = %v, %v", out, err)
	}
	c3.Close()

	if envA.rt.Metrics().Offloaded != 1 {
		t.Errorf("Offloaded = %d, want 1", envA.rt.Metrics().Offloaded)
	}
	if envB.rt.Metrics().Binds == 0 {
		t.Error("peer node served no binds")
	}
	stop.Store(true)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDeviceGraceful(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(16)
	if err := c.MemcpyHD(p, []byte{50}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	var boundDev int
	for _, ds := range env.rt.deviceList() {
		if ds.activeVGPUs() > 0 {
			boundDev = ds.index
		}
	}

	if err := env.rt.RemoveDevice(boundDev); err != nil {
		t.Fatal(err)
	}
	// Job continues on the remaining device; the graceful removal
	// checkpointed its state so nothing replays.
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.MemcpyDH(p, 1)
	if err != nil || out[0] != 52 {
		t.Errorf("data after removal = %v, %v; want 52", out, err)
	}
	if m := env.rt.Metrics(); m.Replays != 0 {
		t.Errorf("graceful removal caused %d replays", m.Replays)
	}
}

func TestAddDeviceServesWaiter(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1))

	// Occupy the only vGPU.
	a := env.client()
	if err := a.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Malloc(16)
	if err := a.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pa}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}

	// Second app blocks waiting for a vGPU.
	b := env.client()
	defer b.Close()
	if err := b.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pb, _ := b.Malloc(16)
	done := make(chan error, 1)
	go func() {
		done <- b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{0}})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if env.rt.QueueDepth() != 1 {
		t.Fatalf("QueueDepth = %d, want 1", env.rt.QueueDepth())
	}

	// Hot-add a device: the waiter must get it.
	nd := gpu.NewDevice(1, smallSpec(1<<20, 1), env.clock)
	if _, err := env.rt.AddDevice(nd); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never served after AddDevice")
	}
	a.Close()
}

func TestExitReleasesDeviceMemory(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1))
	before := env.crt.Device(0).Available()
	for i := 0; i < 3; i++ {
		c := env.client()
		if err := c.RegisterFatBinary(testBinary()); err != nil {
			t.Fatal(err)
		}
		p, _ := c.Malloc(10 << 10)
		if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	env.wg.Wait()
	if got := env.crt.Device(0).Available(); got != before {
		t.Errorf("device leaks: Available = %d, want %d", got, before)
	}
}

func TestPinnedContextExcludedFromSwap(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1))
	a := env.client()
	defer a.Close()
	if err := a.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Malloc(600 << 10)
	// dyn uses dynamic device allocation: the context gets pinned.
	if err := a.Launch(api.LaunchCall{Kernel: "dyn", PtrArgs: []api.DevPtr{pa}}); err != nil {
		t.Fatal(err)
	}

	// A competing context cannot steal a's memory via inter-app swap;
	// it must fall back to unbind-retry and eventually give up
	// (bounded attempts configured via a second runtime? — here we
	// just verify no inter-app swap happened against the pinned app).
	b := env.client()
	defer b.Close()
	if err := b.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pb, _ := b.Malloc(600 << 10)
	done := make(chan error, 1)
	go func() {
		done <- b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{0}})
	}()

	time.Sleep(50 * time.Millisecond)
	if got := env.rt.Metrics().InterAppSwaps; got != 0 {
		t.Errorf("InterAppSwaps = %d against a pinned context, want 0", got)
	}
	// Free the pinned app's memory so b can finish.
	if err := a.Free(pa); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestManyConcurrentClients(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 4}, smallSpec(1<<20, 1), smallSpec(1<<20, 0.5))
	const n = 24
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		c := env.client()
		go func(i int) {
			defer c.Close()
			if err := c.RegisterFatBinary(testBinary()); err != nil {
				errs <- err
				return
			}
			p, err := c.Malloc(uint64(1+i) << 10)
			if err != nil {
				errs <- err
				return
			}
			if err := c.MemcpyHDSynthetic(p, 1<<10); err != nil {
				errs <- err
				return
			}
			for k := 0; k < 4; k++ {
				if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}}); err != nil {
					errs <- err
					return
				}
			}
			if _, err := c.MemcpyDH(p, 16); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	env.wg.Wait()
	// All device memory back after everyone exits.
	for i := 0; i < env.crt.DeviceCount(); i++ {
		d := env.crt.Device(i)
		want := d.Capacity() - uint64(4)*1024 // 4 vGPU reservations
		if got := d.Available(); got != want {
			t.Errorf("device %d: Available = %d, want %d", i, got, want)
		}
	}
}

// TestCPUPhaseOverlap is the core timing claim of GPU sharing: with two
// vGPUs, one application's CPU phase overlaps the other's kernels, so
// the pair finishes faster than serialized execution. Runs at a clock
// scale where modeled sleeps dominate scheduling noise.
func TestCPUPhaseOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	run := func(vgpus int) time.Duration {
		clock := sim.NewClock(1e-3)
		devs := []*gpu.Device{gpu.NewDevice(0, smallSpec(1<<20, 1), clock)}
		crt := cudart.New(clock, devs...)
		crt.SetLimits(1024, 0, 0)
		rt, err := New(crt, Config{VGPUsPerDevice: vgpus, CallOverhead: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()

		app := func(done chan<- error) {
			c, s := transport.Pipe()
			go rt.Serve(s)
			cl := frontend.Connect(c)
			defer cl.Close()
			if err := cl.RegisterFatBinary(testBinary()); err != nil {
				done <- err
				return
			}
			p, err := cl.Malloc(64)
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 4; i++ {
				// 300ms kernel ("noop" is 1ms, timing-only: its lack
				// of a host impl keeps race-detector instrumentation
				// out of the measured window).
				if err := cl.Launch(api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{p}, Repeat: 300}); err != nil {
					done <- err
					return
				}
				clock.Sleep(300 * time.Millisecond) // CPU phase
			}
			done <- nil
		}
		start := clock.Now()
		done := make(chan error, 2)
		go app(done)
		go app(done)
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		return clock.Now() - start
	}

	// Best of three per configuration: a GC or scheduler stall during
	// one run inflates wall time (and therefore measured model time)
	// for both phases; the minimum filters such stalls out.
	best := func(vgpus int) time.Duration {
		m := run(vgpus)
		for i := 0; i < 2; i++ {
			if d := run(vgpus); d < m {
				m = d
			}
		}
		return m
	}
	serialized := best(1)
	shared := best(2)
	t.Logf("serialized %v, shared %v", serialized, shared)
	// Perfect overlap would be ~2.7s vs ~4.8s serialized; require a
	// conservative 15% improvement to stay robust under noise.
	if float64(shared) > float64(serialized)*0.85 {
		t.Errorf("sharing (%v) not clearly faster than serialization (%v)", shared, serialized)
	}
}
