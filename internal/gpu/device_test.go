package gpu

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/sim"
)

// testClock runs fast: 1 model second = 1 wall microsecond.
func testClock() *sim.Clock { return sim.NewClock(1e-6) }

func testDevice() *Device { return NewDevice(0, TeslaC2050, testClock()) }

func TestDeviceMallocFree(t *testing.T) {
	d := testDevice()
	p, err := d.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Fatal("Malloc returned null pointer")
	}
	if got := d.Available(); got != d.Capacity()-1<<20 {
		t.Errorf("Available = %d, want %d", got, d.Capacity()-1<<20)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if got := d.Available(); got != d.Capacity() {
		t.Errorf("Available after Free = %d, want %d", got, d.Capacity())
	}
	if err := d.Free(p); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("double Free err = %v, want ErrInvalidDevicePointer", err)
	}
}

func TestDeviceOOM(t *testing.T) {
	d := testDevice()
	// Sizes within a granule of 2^64 round up past zero; they must be
	// refused like any other oversized request.
	for _, n := range []uint64{d.Capacity() + 1, ^uint64(0) - 100, ^uint64(0)} {
		if _, err := d.Malloc(n); !errors.Is(err, api.ErrMemoryAllocation) {
			t.Errorf("Malloc(%#x) err = %v, want ErrMemoryAllocation", n, err)
		}
	}
	p, err := d.Malloc(d.Capacity())
	if err != nil {
		t.Fatalf("exact-capacity Malloc failed: %v", err)
	}
	if _, err := d.Malloc(1); !errors.Is(err, api.ErrMemoryAllocation) {
		t.Errorf("Malloc on full device err = %v, want ErrMemoryAllocation", err)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAddressSpacesDisjoint(t *testing.T) {
	c := testClock()
	d0 := NewDevice(0, TeslaC2050, c)
	d1 := NewDevice(1, TeslaC1060, c)
	p0, _ := d0.Malloc(64)
	p1, _ := d1.Malloc(64)
	if p0 == p1 {
		t.Errorf("devices handed out the same address %#x", p0)
	}
	if err := d1.Free(p0); err == nil {
		t.Error("freeing another device's pointer should fail")
	}
}

func TestDeviceCopyRoundTrip(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(1024)
	in := []byte("hello, device memory")
	if err := d.CopyIn(p, in, 0); err != nil {
		t.Fatal(err)
	}
	out, err := d.CopyOut(p, uint64(len(in)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Errorf("CopyOut = %q, want %q", out, in)
	}
}

func TestDeviceCopyAtOffset(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(1024)
	if err := d.CopyIn(p+100, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	out, err := d.CopyOut(p+101, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 2 {
		t.Errorf("offset CopyOut = %v, want [2]", out)
	}
}

func TestDeviceCopyBoundsChecked(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(100) // rounds to 256
	if err := d.CopyIn(p, make([]byte, 300), 0); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("out-of-bounds CopyIn err = %v, want ErrInvalidValue", err)
	}
	if _, err := d.CopyOut(p, 300); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("out-of-bounds CopyOut err = %v, want ErrInvalidValue", err)
	}
	if err := d.CopyIn(0xdeadbeef, []byte{1}, 0); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("CopyIn to wild pointer err = %v, want ErrInvalidDevicePointer", err)
	}
}

func TestDeviceSyntheticCopy(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(1 << 20)
	if err := d.CopyIn(p, nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	out, err := d.CopyOut(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("synthetic allocation should CopyOut nil data")
	}
	st := d.Stats()
	if st.H2DBytes != 1<<20 || st.D2HBytes != 1<<20 {
		t.Errorf("byte accounting = %d/%d, want 1MiB/1MiB", st.H2DBytes, st.D2HBytes)
	}
}

func TestDeviceExecRunsKernelFunc(t *testing.T) {
	d := testDevice()
	runs := 0
	err := d.Exec(time.Millisecond, 3, func() error { runs++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("kernel fn ran %d times, want 3", runs)
	}
	st := d.Stats()
	if st.Launches != 3 {
		t.Errorf("Launches = %d, want 3", st.Launches)
	}
	if st.Busy < 3*time.Millisecond {
		t.Errorf("Busy = %v, want >= 3ms", st.Busy)
	}
}

func TestDeviceExecSpeedScaling(t *testing.T) {
	c := testClock()
	fast := NewDevice(0, TeslaC2050, c) // speed 1.0
	slow := NewDevice(1, Quadro2000, c) // speed 0.35
	if err := fast.Exec(10*time.Millisecond, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := slow.Exec(10*time.Millisecond, 1, nil); err != nil {
		t.Fatal(err)
	}
	fb, sb := fast.Stats().Busy, slow.Stats().Busy
	ratio := float64(sb) / float64(fb)
	if ratio < 2.0 || ratio > 4.0 {
		t.Errorf("slow/fast busy ratio = %.2f, want ~1/0.35", ratio)
	}
}

func TestDeviceExecSerialized(t *testing.T) {
	// Two concurrent kernels must occupy the execution engine back to
	// back: total busy time is additive and wall time >= sum.
	d := NewDevice(0, TeslaC2050, sim.NewClock(1e-3)) // 1 model s = 1 ms
	const kernel = 100 * time.Millisecond             // 100 µs wall each
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Exec(kernel, 1, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if wall < 380*time.Microsecond {
		t.Errorf("4 serialized 100µs-wall kernels finished in %v, want >= ~400µs", wall)
	}
}

func TestDeviceFailure(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(256)
	d.Fail()
	if !d.Failed() {
		t.Error("Failed() = false after Fail()")
	}
	if _, err := d.Malloc(1); !errors.Is(err, api.ErrDeviceUnavailable) {
		t.Errorf("Malloc on failed device err = %v", err)
	}
	if err := d.CopyIn(p, nil, 1); !errors.Is(err, api.ErrDeviceUnavailable) {
		t.Errorf("CopyIn on failed device err = %v", err)
	}
	if err := d.Exec(time.Millisecond, 1, nil); !errors.Is(err, api.ErrDeviceUnavailable) {
		t.Errorf("Exec on failed device err = %v", err)
	}
	d.Restore()
	if _, err := d.Malloc(1); err != nil {
		t.Errorf("Malloc after Restore err = %v", err)
	}
}

func TestDeviceRemoved(t *testing.T) {
	d := testDevice()
	d.MarkRemoved()
	if !d.Removed() {
		t.Error("Removed() = false after MarkRemoved()")
	}
	if _, err := d.Malloc(1); !errors.Is(err, api.ErrDeviceUnavailable) {
		t.Errorf("Malloc on removed device err = %v", err)
	}
}

func TestDeviceBytesMaterialises(t *testing.T) {
	d := testDevice()
	p, _ := d.Malloc(512)
	b, err := d.Bytes(p + 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 502 {
		t.Errorf("Bytes length = %d, want 502", len(b))
	}
	b[0] = 42
	out, _ := d.CopyOut(p+10, 1)
	if len(out) != 1 || out[0] != 42 {
		t.Error("mutation through Bytes not visible to CopyOut")
	}
	if _, err := d.Bytes(0x1); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("Bytes(wild) err = %v", err)
	}
}

func TestDeviceConcurrentMallocFree(t *testing.T) {
	d := testDevice()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				p, err := d.Malloc(4096)
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.Free(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.Available() != d.Capacity() {
		t.Errorf("leak: Available = %d, want %d", d.Available(), d.Capacity())
	}
}

// TestBookEngineTimeline: an engine runs its submissions one at a time
// in the order they booked it, and its timeline never wraps.
func TestBookEngineTimeline(t *testing.T) {
	var freeAt time.Duration
	now := 5 * time.Second
	for i, c := range []struct{ total, wait time.Duration }{
		{time.Second, 0},
		{2 * time.Second, time.Second},
		{3 * time.Second, 3 * time.Second},
	} {
		if wait := book(&freeAt, now, c.total) - now - c.total; wait != c.wait {
			t.Errorf("booking %d at one instant waits %v, want %v", i, wait, c.wait)
		}
	}
	later := freeAt + time.Second
	if end := book(&freeAt, later, time.Second); end != later+time.Second {
		t.Errorf("booking after the engine frees ends at %v, want %v", end, later+time.Second)
	}
	freeAt = math.MaxInt64 - time.Second
	if end := book(&freeAt, 0, 2*time.Second); end != math.MaxInt64 || freeAt != math.MaxInt64 {
		t.Errorf("booking past the largest Duration ends at %v (free at %v), want both saturated", end, freeAt)
	}
}

// TestShortSubmissionBooksNothing: at 1 model second per wall
// microsecond a transfer or a kernel is far below what the clock can
// delay, so it returns without booking its engine.
func TestShortSubmissionBooksNothing(t *testing.T) {
	d := testDevice()
	p, err := d.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyIn(p, make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CopyOut(p, 64); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec(time.Millisecond, 1, nil); err != nil {
		t.Fatal(err)
	}
	if d.h2dFree != 0 || d.d2hFree != 0 || d.execFree != 0 {
		t.Errorf("engines free at h2d %v, d2h %v, exec %v; want all 0", d.h2dFree, d.d2hFree, d.execFree)
	}
}

// TestSubmissionPaths: a batch lands the same bytes and counts the same
// per-item ops whichever path it takes — admitted and landed in one hold
// of d.mu (no hook armed, a clock too coarse to delay it), booked on its
// engine (a clock that delays it), or consulted item by item by an armed
// DMA hook, which fires in item order: the occurrence its rule names
// corrupts exactly that item.
func TestSubmissionPaths(t *testing.T) {
	for _, c := range []struct {
		name   string
		scale  float64
		hooked bool
	}{
		{"one hold", 1e-6, false},
		{"booked", 1e-2, false},
		{"hooked", 1e-6, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDevice(0, TeslaC2050, sim.NewClock(c.scale))
			var plane *faultinject.Plane
			if c.hooked {
				plane = faultinject.New(faultinject.Plan{Name: "order", Seed: 1, Rules: []faultinject.Rule{
					{Point: faultinject.PointDeviceDMA, AtNth: 2, Action: faultinject.ActCorrupt},
				}})
				d.InstallFaults(plane)
			}
			var in []api.HDCopy
			var out []api.DHCopy
			for i := 0; i < 3; i++ {
				p, err := d.Malloc(64)
				if err != nil {
					t.Fatal(err)
				}
				in = append(in, api.HDCopy{Dst: p, Data: []byte{byte(i + 1), 7}})
				out = append(out, api.DHCopy{Src: p, Size: 2})
			}
			in[2] = api.HDCopy{Dst: in[2].Dst, Size: 48} // synthetic: never materialised
			if _, err := d.CopyInAs(nil, in); err != nil {
				t.Fatal(err)
			}
			datas, _, err := d.CopyOutAs(nil, out)
			if err != nil {
				t.Fatal(err)
			}
			second := byte(2)
			if c.hooked {
				second ^= 0xFF
			}
			if len(datas) != 3 || !bytes.Equal(datas[0], []byte{1, 7}) || !bytes.Equal(datas[1], []byte{second, 7}) || datas[2] != nil {
				t.Errorf("read back %v, want [[1 7] [%d 7] []]", datas, second)
			}
			want := Stats{H2DOps: 3, H2DBytes: 52, D2HOps: 3, D2HBytes: 6}
			if got := d.Stats(); got != want {
				t.Errorf("stats %+v, want %+v", got, want)
			}
			if booked := d.h2dFree != 0 && d.d2hFree != 0; booked != (c.name == "booked") {
				t.Errorf("engines booked = %v (h2d free at %v, d2h at %v)", booked, d.h2dFree, d.d2hFree)
			}
			if c.hooked {
				if n := plane.Occurrences()[string(faultinject.PointDeviceDMA)+"/gpu0"]; n != 6 {
					t.Errorf("DMA hook consulted %d times, want once per item: 6", n)
				}
			}
		})
	}
}

// TestFreeAsOwnerBeforeHealth: a CUDA context's address space is its
// own, so another owner's pointer is invalid on a failed device too —
// in the one hold a free the clock cannot delay takes, and around the
// sleep of one it can. Only a usable device charges FreeTime.
func TestFreeAsOwnerBeforeHealth(t *testing.T) {
	for _, scale := range []float64{1e-6, 1e-2} {
		d := NewDevice(0, TeslaC2050, sim.NewClock(scale))
		mine, other := &Owner{}, &Owner{}
		p, err := d.MallocAs(mine, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		d.Fail()
		if charged, err := d.FreeAs(other, p); charged != 0 || !errors.Is(err, api.ErrInvalidDevicePointer) {
			t.Errorf("scale %g: another owner's free on a failed device = %v, %v; want 0, ErrInvalidDevicePointer", scale, charged, err)
		}
		if charged, err := d.FreeAs(mine, p); charged != 0 || !errors.Is(err, api.ErrDeviceUnavailable) {
			t.Errorf("scale %g: own free on a failed device = %v, %v; want 0, ErrDeviceUnavailable", scale, charged, err)
		}
		d.Restore()
		if charged, err := d.FreeAs(mine, p); charged != FreeTime || err != nil {
			t.Errorf("scale %g: own free = %v, %v; want %v, nil", scale, charged, err, FreeTime)
		}
		if got := d.Available(); got != d.Capacity() {
			t.Errorf("scale %g: available %d after the free, want %d", scale, got, d.Capacity())
		}
	}
}
