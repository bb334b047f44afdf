package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
)

// TestMemsetThroughAPI covers cudaMemset across the deferral machinery.
func TestMemsetThroughAPI(t *testing.T) {
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
	if err := c.Memset(p, 7, 16); err != nil {
		t.Fatal(err)
	}
	// The fill must not have touched the device (deferral).
	if env.crt.Device(0).Stats().H2DBytes != 0 {
		t.Error("memset reached the device before any launch")
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.MemcpyDH(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{8, 8, 8, 8, 7, 7, 7, 7} // inc bumped the first 4
	if !bytes.Equal(out, want) {
		t.Errorf("after memset+inc, data = %v, want %v", out, want)
	}
	// Out-of-bounds memset is rejected before the device.
	if err := c.Memset(p, 1, 64); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("oversized memset err = %v", err)
	}
	if err := c.Memset(0xbad, 1, 4); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("wild memset err = %v", err)
	}
}

// TestMemsetZeroSynthetic: a zero fill on an untouched entry stays
// synthetic — no host memory is materialised for modeled gigabytes.
func TestMemsetZeroSynthetic(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(512 << 10)
	if err := c.Memset(p, 0, 512<<10); err != nil {
		t.Fatal(err)
	}
	pte, _, err := env.rt.mm.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if pte.HasData() {
		t.Error("zero memset materialised swap backing")
	}
	if !pte.ToCopy2Dev {
		t.Error("memset did not mark the entry for transfer")
	}
}

// TestPitchedAndArrayAllocations covers cudaMallocPitch/cudaMallocArray
// through the stack.
func TestPitchedAndArrayAllocations(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}

	pp, err := c.MallocPitch(100, 4) // rows of 100 padded to 512
	if err != nil {
		t.Fatal(err)
	}
	if pp.Pitch != 512 {
		t.Errorf("Pitch = %d, want 512", pp.Pitch)
	}
	// Row 2 starts at pitch*2; writing there must be in bounds.
	if err := c.MemcpyHD(pp.Ptr+api.DevPtr(2*pp.Pitch), []byte{1, 2, 3}); err != nil {
		t.Errorf("write to pitched row: %v", err)
	}
	// Past the padded extent is out of bounds.
	if err := c.MemcpyHD(pp.Ptr+api.DevPtr(4*pp.Pitch), []byte{1}); err == nil {
		t.Error("write past pitched extent should fail")
	}

	arr, err := c.MallocArray(4, 16, 16) // 16x16 of 4-byte elements
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(arr, make([]byte, 4*16*16)); err != nil {
		t.Errorf("full array write: %v", err)
	}
	pte, _, err := env.rt.mm.Resolve(arr)
	if err != nil {
		t.Fatal(err)
	}
	if pte.Size != 4*16*16 {
		t.Errorf("array entry size = %d", pte.Size)
	}
}

// TestDeviceMetrics checks the per-device slice of the stats snapshot.
func TestDeviceMetrics(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1), smallSpec(1<<20, 0.5))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(64)
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	m := env.rt.Metrics()
	if len(m.Devices) != 2 {
		t.Fatalf("Devices = %d entries, want 2", len(m.Devices))
	}
	var launches int64
	active := 0
	for _, d := range m.Devices {
		if d.VGPUs != 2 || !d.Healthy || d.Capacity == 0 {
			t.Errorf("device %d snapshot wrong: %+v", d.Index, d)
		}
		launches += d.Launches
		active += d.ActiveVGPUs
	}
	if launches != 1 {
		t.Errorf("total launches = %d, want 1", launches)
	}
	if active != 1 {
		t.Errorf("active vGPUs = %d, want 1", active)
	}
}

// TestPTXAnnotationDrivesPolicies: a kernel shipping PTX with a
// device-side malloc pins its context (excluded from sharing, §1)
// without the toolchain setting any flag by hand.
func TestPTXAnnotationDrivesPolicies(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	fb := api.FatBinary{
		ID: "ptx-bin",
		Kernels: []api.KernelMeta{{
			Name:     "builder",
			BaseTime: 1000,
			PTX: `
.visible .entry builder()
{
	call.uni (retval0), malloc, (%rd1);
	ret;
}
`,
		}},
	}
	if err := c.RegisterFatBinary(fb); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(64)
	if err := c.Launch(api.LaunchCall{Kernel: "builder", PtrArgs: []api.DevPtr{p}}); err != nil {
		t.Fatal(err)
	}
	// The context must now be pinned.
	env.rt.mu.Lock()
	var pinned bool
	for _, ctx := range env.rt.ctxs {
		pinned = pinned || ctx.pinned.Load()
	}
	env.rt.mu.Unlock()
	if !pinned {
		t.Error("PTX-detected dynamic allocation did not pin the context")
	}
}

// TestRegisterLeavesCallersBinary: a received call is immutable. Over a
// pipe the registered binary's kernels are the caller's own array, so
// annotating them in place handed the derived flags back to the caller,
// and to every later session registering the same value.
func TestRegisterLeavesCallersBinary(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	fb := api.FatBinary{ID: "ptx-shared", Kernels: []api.KernelMeta{{
		Name: "builder", BaseTime: 1000, PTX: "call.uni (retval0), malloc, (%rd1);",
	}}}
	for session := 0; session < 2; session++ {
		c := env.client()
		err := c.RegisterFatBinary(fb)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fb.Kernels[0].UsesDynamicAlloc {
			t.Fatalf("session %d: registering set UsesDynamicAlloc in the caller's binary", session)
		}
	}
}

// TestPTXNestedRequiresRegistration: PTX-detected nesting makes the
// runtime reject launches without a registered nested structure.
func TestPTXNestedRequiresRegistration(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	fb := api.FatBinary{
		ID: "ptx-nested",
		Kernels: []api.KernelMeta{{
			Name:     "traverse",
			BaseTime: 1000,
			PTX: `
.visible .entry traverse()
{
	ld.global.u64 %rd3, [%rd2];
	ld.global.u32 %r1, [%rd3+8];
	ret;
}
`,
		}},
	}
	if err := c.RegisterFatBinary(fb); err != nil {
		t.Fatal(err)
	}
	parent, _ := c.Malloc(16)
	member, _ := c.Malloc(16)
	err := c.Launch(api.LaunchCall{Kernel: "traverse", PtrArgs: []api.DevPtr{parent}})
	if !errors.Is(err, api.ErrUnsupported) {
		t.Errorf("nested kernel without registration err = %v, want ErrUnsupported", err)
	}
	if err := c.RegisterNested(parent, []api.DevPtr{member}, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "traverse", PtrArgs: []api.DevPtr{parent}}); err != nil {
		t.Errorf("nested kernel with registration err = %v", err)
	}
}

// TestStatsRPC covers the operator stats snapshot over the wire.
func TestStatsRPC(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(64)
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Binds != 1 || st.LiveContexts != 1 || st.CallsServed == 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Devices) != 1 || st.Devices[0].Launches != 1 || !st.Devices[0].Healthy {
		t.Errorf("device stats = %+v", st.Devices)
	}
}

// TestRuntimeEdgeCases sweeps small administrative paths.
func TestRuntimeEdgeCases(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))

	if err := env.rt.RemoveDevice(99); !errors.Is(err, api.ErrInvalidDevice) {
		t.Errorf("RemoveDevice(99) err = %v", err)
	}
	if n := env.rt.VGPUCount(); n != 4 {
		t.Errorf("VGPUCount = %d, want 4", n)
	}
	env.rt.FailDevice(1)
	if n := env.rt.VGPUCount(); n != 2 {
		t.Errorf("VGPUCount after failure = %d, want 2", n)
	}
	env.rt.FailDevice(1) // idempotent
	if got := env.rt.Metrics().DeviceFailures; got != 1 {
		t.Errorf("DeviceFailures = %d, want 1 (idempotent)", got)
	}

	// With every device gone, launches report ErrNoDevice.
	env.rt.FailDevice(0)
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Malloc(64)
	err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}})
	if code := api.Code(err); code != api.ErrNoDevice && code != api.ErrMemoryAllocation {
		t.Errorf("launch with no devices err = %v", err)
	}
	// Memory-only operations still work from the swap area.
	if err := c.MemcpyHD(p, []byte{1}); err != nil {
		t.Errorf("swap-only MemcpyHD err = %v", err)
	}
	out, err := c.MemcpyDH(p, 1)
	if err != nil || out[0] != 1 {
		t.Errorf("swap-only MemcpyDH = %v, %v", out, err)
	}
}

// TestCloseUnblocksWaiters: closing the runtime releases contexts parked
// on the waiting list with a clean error.
func TestCloseUnblocksWaiters(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1))
	hog := env.client()
	defer hog.Close()
	if err := hog.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	ph, _ := hog.Malloc(64)
	if err := hog.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{ph}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	w := env.client()
	defer w.Close()
	if err := w.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pw, _ := w.Malloc(64)
	done := make(chan error, 1)
	go func() {
		done <- w.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pw}, Scalars: []uint64{0}})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	env.rt.Close()
	select {
	case err := <-done:
		if code := api.Code(err); code != api.ErrNoDevice {
			t.Errorf("waiter err after Close = %v, want ErrNoDevice", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after Close")
	}
}
