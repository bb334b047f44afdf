package cudart

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

func newTestRuntime(specs ...gpu.Spec) *Runtime {
	clock := sim.NewClock(1e-6)
	if len(specs) == 0 {
		specs = []gpu.Spec{gpu.TeslaC2050}
	}
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	return New(clock, devs...)
}

func TestDeviceCount(t *testing.T) {
	rt := newTestRuntime(gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060)
	if rt.DeviceCount() != 3 {
		t.Errorf("DeviceCount = %d, want 3", rt.DeviceCount())
	}
	if rt.Device(2).Spec().Name != "Tesla C1060" {
		t.Errorf("Device(2) = %v", rt.Device(2))
	}
	if rt.Device(3) != nil || rt.Device(-1) != nil {
		t.Error("out-of-range Device should return nil")
	}
}

func TestAddDevice(t *testing.T) {
	rt := newTestRuntime()
	id := rt.AddDevice(gpu.NewDevice(1, gpu.Quadro2000, rt.Clock()))
	if id != 1 || rt.DeviceCount() != 2 {
		t.Errorf("AddDevice -> id=%d count=%d", id, rt.DeviceCount())
	}
}

func TestCreateContextBadDevice(t *testing.T) {
	rt := newTestRuntime()
	if _, err := rt.CreateContext(5); !errors.Is(err, api.ErrInvalidDevice) {
		t.Errorf("CreateContext(5) err = %v, want ErrInvalidDevice", err)
	}
}

func TestContextReservationConsumesMemory(t *testing.T) {
	rt := newTestRuntime()
	before := rt.Device(0).Available()
	ctx, err := rt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Device() != rt.Device(0) || ctx.DeviceIndex() != 0 {
		t.Error("context device accessors broken")
	}
	after := rt.Device(0).Available()
	if before-after != DefaultContextReservation {
		t.Errorf("context reserved %d bytes, want %d", before-after, uint64(DefaultContextReservation))
	}
	ctx.Destroy()
	if rt.Device(0).Available() != before {
		t.Error("Destroy did not release the reservation")
	}
}

// TestContextLimit reproduces the paper's observation (§1, §5.3.1) that
// the CUDA runtime supports at most eight concurrent contexts per
// device.
func TestContextLimit(t *testing.T) {
	rt := newTestRuntime()
	var ctxs []*Context
	for i := 0; i < DefaultMaxContextsPerDevice; i++ {
		ctx, err := rt.CreateContext(0)
		if err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
		ctxs = append(ctxs, ctx)
	}
	if _, err := rt.CreateContext(0); !errors.Is(err, api.ErrTooManyContexts) {
		t.Errorf("9th context err = %v, want ErrTooManyContexts", err)
	}
	// Destroying one frees a slot.
	ctxs[0].Destroy()
	if _, err := rt.CreateContext(0); err != nil {
		t.Errorf("context after destroy err = %v", err)
	}
}

// TestProcessLimit reproduces §5.3.2: more than eight concurrent client
// processes cannot use the bare runtime stably.
func TestProcessLimit(t *testing.T) {
	rt := newTestRuntime()
	var procs []*Process
	for i := 0; i < DefaultMaxProcesses; i++ {
		p, err := rt.AttachProcess()
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	if _, err := rt.AttachProcess(); !errors.Is(err, api.ErrRuntimeUnstable) {
		t.Errorf("9th process err = %v, want ErrRuntimeUnstable", err)
	}
	procs[0].Detach()
	procs[0].Detach() // idempotent
	if rt.AttachedProcesses() != DefaultMaxProcesses-1 {
		t.Errorf("AttachedProcesses = %d", rt.AttachedProcesses())
	}
	if _, err := rt.AttachProcess(); err != nil {
		t.Errorf("attach after detach err = %v", err)
	}
}

func TestAggregateMemoryOOM(t *testing.T) {
	// Two contexts whose aggregate footprint exceeds the device fail,
	// even though each would fit alone — the §1 scenario that forces
	// serialization under the bare runtime.
	rt := newTestRuntime()
	cap := rt.Device(0).Capacity()
	big := cap * 2 / 3

	a, err := rt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Destroy()
	b, err := rt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Destroy()

	if _, err := a.Malloc(big); err != nil {
		t.Fatalf("first big alloc: %v", err)
	}
	if _, err := b.Malloc(big); !errors.Is(err, api.ErrMemoryAllocation) {
		t.Errorf("second big alloc err = %v, want ErrMemoryAllocation", err)
	}
}

func TestContextIsolation(t *testing.T) {
	rt := newTestRuntime()
	a, _ := rt.CreateContext(0)
	b, _ := rt.CreateContext(0)
	defer a.Destroy()
	defer b.Destroy()

	p, err := a.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Free(p); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("cross-context Free err = %v, want ErrInvalidDevicePointer", err)
	}
	if err := b.MemcpyHD(p, []byte{1}, 0); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("cross-context MemcpyHD err = %v, want ErrInvalidDevicePointer", err)
	}
	if _, err := b.MemcpyDH(p, 1); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("cross-context MemcpyDH err = %v, want ErrInvalidDevicePointer", err)
	}
}

func TestLaunchUnregisteredKernel(t *testing.T) {
	rt := newTestRuntime()
	ctx, _ := rt.CreateContext(0)
	defer ctx.Destroy()
	err := ctx.Launch(api.LaunchCall{Kernel: "nope"})
	if !errors.Is(err, api.ErrNotRegistered) {
		t.Errorf("launch err = %v, want ErrNotRegistered", err)
	}
}

func TestLaunchRunsImplAndTransformsData(t *testing.T) {
	const binID = "cudart-test-bin"
	api.RegisterKernelImpl(binID, "double", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		n := int(scalars[0])
		for i := 0; i < n; i++ {
			buf[i] *= 2
		}
		return nil
	})
	defer api.RegisterKernelImpl(binID, "double", nil)

	rt := newTestRuntime()
	ctx, _ := rt.CreateContext(0)
	defer ctx.Destroy()
	if err := ctx.RegisterFatBinary(api.FatBinary{
		ID:      binID,
		Kernels: []api.KernelMeta{{Name: "double", BaseTime: time.Millisecond}},
	}); err != nil {
		t.Fatal(err)
	}
	p, err := ctx.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyHD(p, []byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(api.LaunchCall{
		Kernel:  "double",
		PtrArgs: []api.DevPtr{p},
		Scalars: []uint64{4},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := ctx.MemcpyDH(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{2, 4, 6, 8}) {
		t.Errorf("kernel result = %v, want [2 4 6 8]", out)
	}
}

func TestLaunchValidatesPointerArgs(t *testing.T) {
	rt := newTestRuntime()
	ctx, _ := rt.CreateContext(0)
	defer ctx.Destroy()
	if err := ctx.RegisterFatBinary(api.FatBinary{
		ID:      "b",
		Kernels: []api.KernelMeta{{Name: "k", BaseTime: time.Millisecond}},
	}); err != nil {
		t.Fatal(err)
	}
	err := ctx.Launch(api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{0xbad}})
	if !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("launch with wild pointer err = %v, want ErrInvalidDevicePointer", err)
	}
}

func TestSynchronizeReportsFailedDevice(t *testing.T) {
	rt := newTestRuntime()
	ctx, _ := rt.CreateContext(0)
	defer ctx.Destroy()
	if err := ctx.Synchronize(); err != nil {
		t.Fatalf("healthy Synchronize: %v", err)
	}
	rt.Device(0).Fail()
	if err := ctx.Synchronize(); !errors.Is(err, api.ErrDeviceUnavailable) {
		t.Errorf("Synchronize on failed device err = %v", err)
	}
	rt.Device(0).Restore()
}

func TestDestroyReleasesEverything(t *testing.T) {
	rt := newTestRuntime()
	before := rt.Device(0).Available()
	ctx, _ := rt.CreateContext(0)
	var last api.DevPtr
	for i := 0; i < 5; i++ {
		p, err := ctx.Malloc(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	// A free the failed device refused must leave the block in the
	// context's name: the device comes back with it still allocated, and
	// nothing but Destroy can return it (the soak's stranded 600 KiB).
	rt.Device(0).Fail()
	if _, err := ctx.Free(last); !errors.Is(err, api.ErrDeviceUnavailable) {
		t.Fatalf("Free on a failed device: %v", err)
	}
	rt.Device(0).Restore()
	ctx.Destroy()
	ctx.Destroy() // idempotent
	if got := rt.Device(0).Available(); got != before {
		t.Errorf("after Destroy, Available = %d, want %d", got, before)
	}
	if rt.ContextsOn(0) != 0 {
		t.Errorf("ContextsOn(0) = %d after Destroy", rt.ContextsOn(0))
	}
	if _, err := ctx.Malloc(1); err == nil {
		t.Error("Malloc on destroyed context should fail")
	}
}

// TestMallocZeroIsInvalid: cudaMalloc of zero bytes yields no pointer
// the context could use, so it is refused and takes no device memory —
// as memmgr.Malloc refuses it under the runtime.
func TestMallocZeroIsInvalid(t *testing.T) {
	rt := newTestRuntime()
	ctx, err := rt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Destroy()
	before := rt.Device(0).Available()
	if p, err := ctx.Malloc(0); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("Malloc(0) = %#x, %v; want ErrInvalidValue", p, err)
	}
	if got := rt.Device(0).Available(); got != before {
		t.Errorf("Malloc(0) took %d bytes", before-got)
	}
}

// TestMallocRacingDestroyHoldsNothing: an allocation already past the
// context's liveness check when Destroy runs must not land for the
// destroyed context, where nothing would ever free it. A fault rule
// stalls the context's first Malloc inside the device (the reservation
// is the device's first allocation, the Malloc its second) for ten
// model hours, 36 wall milliseconds at this clock's scale: Destroy,
// called once the rule has fired, returns long before the stall ends.
func TestMallocRacingDestroyHoldsNothing(t *testing.T) {
	clock := sim.NewClock(1e-6)
	dev := gpu.NewDevice(0, gpu.TeslaC2050, clock)
	plane := faultinject.New(faultinject.Plan{Name: "malloc-racing-destroy", Rules: []faultinject.Rule{{
		Point: faultinject.PointDeviceMalloc, AtNth: 2, Action: faultinject.ActDelay, Delay: 10 * time.Hour,
	}}})
	dev.InstallFaults(plane)
	rt := New(clock, dev)
	before := dev.Available()
	ctx, err := rt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ctx.Malloc(1 << 20)
		done <- err
	}()
	for len(plane.Schedule()) == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	ctx.Destroy()
	if err := <-done; !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("Malloc racing Destroy err = %v, want ErrInvalidValue", err)
	}
	if got := dev.Available(); got != before {
		t.Errorf("available %d after Destroy, %d before the context: %d bytes stranded", got, before, before-got)
	}
}
