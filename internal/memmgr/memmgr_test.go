package memmgr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/trace"
)

// The model time a fakeOps charges per transfer and per free.
const (
	fakeCopyTime = 3 * time.Microsecond
	fakeFreeTime = 5 * time.Microsecond
)

// fakeOps is a deterministic in-memory DeviceOps with a capacity cap
// and failure injection.
type fakeOps struct {
	capacity uint64
	used     uint64
	next     uint64
	bufs     map[api.DevPtr][]byte
	sizes    map[api.DevPtr]uint64
	// real marks allocations that carry real bytes; like the gpu
	// package, MemcpyDH returns nil for purely synthetic allocations.
	real    map[api.DevPtr]bool
	mallocs int
	frees   int
	// hdCopies and dhCopies count transfers, hdCalls and dhCalls the
	// submissions that carried them.
	hdCopies, hdCalls int
	dhCopies, dhCalls int
	failNext          error
}

func newFakeOps(capacity uint64) *fakeOps {
	return &fakeOps{
		capacity: capacity,
		next:     0x10000,
		bufs:     make(map[api.DevPtr][]byte),
		sizes:    make(map[api.DevPtr]uint64),
		real:     make(map[api.DevPtr]bool),
	}
}

// poke simulates a kernel writing real bytes to device memory.
func (f *fakeOps) poke(base api.DevPtr, data []byte) {
	copy(f.bufs[base], data)
	f.real[base] = true
}

func (f *fakeOps) takeErr() error {
	err := f.failNext
	f.failNext = nil
	return err
}

func (f *fakeOps) Malloc(size uint64) (api.DevPtr, error) {
	if err := f.takeErr(); err != nil {
		return 0, err
	}
	f.mallocs++
	if f.used+size > f.capacity {
		return 0, api.ErrMemoryAllocation
	}
	f.used += size
	p := api.DevPtr(f.next)
	f.next += size + 256
	f.bufs[p] = make([]byte, size)
	f.sizes[p] = size
	return p, nil
}

func (f *fakeOps) Free(p api.DevPtr) (time.Duration, error) {
	if err := f.takeErr(); err != nil {
		return 0, err
	}
	f.frees++
	size, ok := f.sizes[p]
	if !ok {
		return 0, api.ErrInvalidDevicePointer
	}
	f.used -= size
	delete(f.bufs, p)
	delete(f.sizes, p)
	delete(f.real, p)
	return fakeFreeTime, nil
}

// resolve finds the allocation containing ptr.
func (f *fakeOps) resolve(ptr api.DevPtr) (api.DevPtr, uint64, bool) {
	for base, size := range f.sizes {
		if ptr >= base && ptr < base+api.DevPtr(size) {
			return base, uint64(ptr - base), true
		}
	}
	return 0, 0, false
}

func (f *fakeOps) MemcpyHDBatch(items []api.HDCopy) (time.Duration, error) {
	if err := f.takeErr(); err != nil {
		return 0, err
	}
	for _, it := range items {
		if _, _, ok := f.resolve(it.Dst); !ok {
			return 0, api.ErrInvalidDevicePointer
		}
	}
	f.hdCalls++
	for _, it := range items {
		f.hdCopies++
		base, off, _ := f.resolve(it.Dst)
		if it.Data != nil {
			copy(f.bufs[base][off:], it.Data)
			f.real[base] = true
		}
	}
	return time.Duration(len(items)) * fakeCopyTime, nil
}

func (f *fakeOps) MemcpyDHBatch(items []api.DHCopy) ([][]byte, time.Duration, error) {
	if err := f.takeErr(); err != nil {
		return nil, 0, err
	}
	for _, it := range items {
		if _, _, ok := f.resolve(it.Src); !ok {
			return nil, 0, api.ErrInvalidDevicePointer
		}
	}
	f.dhCalls++
	var out [][]byte
	for i, it := range items {
		f.dhCopies++
		base, off, _ := f.resolve(it.Src)
		if !f.real[base] {
			continue
		}
		if out == nil {
			out = make([][]byte, len(items))
		}
		out[i] = make([]byte, it.Size)
		copy(out[i], f.bufs[base][off:])
	}
	return out, time.Duration(len(items)) * fakeCopyTime, nil
}

func mustMalloc(t *testing.T, m *Manager, ctx int64, size uint64) *PTE {
	t.Helper()
	v, err := m.Malloc(ctx, size, KindLinear)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	pte, off, err := m.Resolve(v)
	if err != nil || off != 0 {
		t.Fatalf("Resolve(%#x) = %v, off=%d", v, err, off)
	}
	return pte
}

func TestMallocCreatesEntryWithoutDevice(t *testing.T) {
	m := New(true, 0)
	pte := mustMalloc(t, m, 1, 1024)
	if pte.IsAllocated || pte.ToCopy2Dev || pte.ToCopy2Swap {
		t.Errorf("fresh entry flags = %v/%v/%v, want F/F/F",
			pte.IsAllocated, pte.ToCopy2Dev, pte.ToCopy2Swap)
	}
	if got := pte.owner.Usage(); got != 1024 {
		t.Errorf("Usage = %d, want 1024", got)
	}
	if pte.HasData() {
		t.Error("fresh entry should have no materialised swap data")
	}
}

func TestMallocZeroSize(t *testing.T) {
	m := New(true, 0)
	if _, err := m.Malloc(1, 0, KindLinear); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("Malloc(0) err = %v, want ErrInvalidValue", err)
	}
}

func TestMallocHostLimit(t *testing.T) {
	m := New(true, 1000)
	if _, err := m.Malloc(1, 800, KindLinear); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Malloc(1, 300, KindLinear); !errors.Is(err, api.ErrSwapAllocation) {
		t.Errorf("over-limit Malloc err = %v, want ErrSwapAllocation", err)
	}
}

// TestMallocSizeBounds: a client-chosen size can neither wrap the
// 256-byte rounding or the host reservation, nor push a context's
// cursor out of its 40-bit offset space into the next context's
// addresses. Each refusal is ErrMemoryAllocation and reserves nothing.
func TestMallocSizeBounds(t *testing.T) {
	for _, limit := range []uint64{0, 1 << 50} {
		m := New(true, limit)
		for _, size := range []uint64{1<<64 - 1, 1<<64 - 200, 1 << 40} {
			if _, err := m.Malloc(1, size, KindLinear); !errors.Is(err, api.ErrMemoryAllocation) {
				t.Errorf("limit %d: Malloc(%#x) err = %v, want ErrMemoryAllocation", limit, size, err)
			}
		}
		if used := m.Stats().HostBytesInUse; used != 0 {
			t.Errorf("limit %d: refused allocations left %d host bytes in use", limit, used)
		}
		// Two allocations whose sum crosses the offset space: the second
		// is refused and refunded.
		first := mustMalloc(t, m, 1, 1<<39)
		if _, err := m.Malloc(1, 1<<39, KindLinear); !errors.Is(err, api.ErrMemoryAllocation) {
			t.Errorf("limit %d: Malloc crossing 1<<40 err = %v, want ErrMemoryAllocation", limit, err)
		}
		if err := m.Free(first, nil); err != nil {
			t.Fatal(err)
		}
		if used := m.Stats().HostBytesInUse; used != 0 {
			t.Errorf("limit %d: %d host bytes in use after the refusal and a Free", limit, used)
		}
		if v, err := m.Malloc(1, 64, KindLinear); err != nil || ptrCtx(v) != 1 {
			t.Errorf("limit %d: next Malloc = %#x (owner bits name context %d), %v; want context 1", limit, v, ptrCtx(v), err)
		}
	}
}

func TestResolveMidEntryAndInvalid(t *testing.T) {
	m := New(true, 0)
	v, _ := m.Malloc(7, 100, KindLinear)
	pte, off, err := m.Resolve(v + 42)
	if err != nil || off != 42 || pte.Virtual != v {
		t.Errorf("Resolve(v+42) = (%v, %d, %v)", pte, off, err)
	}
	if _, _, err := m.Resolve(v + 100); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("Resolve past end err = %v", err)
	}
	if _, _, err := m.Resolve(0x1234); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("Resolve of raw device-looking ptr err = %v", err)
	}
	if m.Stats().BadOpsRejected < 2 {
		t.Errorf("BadOpsRejected = %d, want >= 2", m.Stats().BadOpsRejected)
	}
}

func TestVirtualAddressesDisjointAcrossContexts(t *testing.T) {
	m := New(true, 0)
	v1, _ := m.Malloc(1, 64, KindLinear)
	v2, _ := m.Malloc(2, 64, KindLinear)
	if v1 == v2 {
		t.Error("different contexts got the same virtual address")
	}
	p1, _, err1 := m.Resolve(v1)
	p2, _, err2 := m.Resolve(v2)
	if err1 != nil || err2 != nil || p1.CtxID() != 1 || p2.CtxID() != 2 {
		t.Error("virtual addresses did not resolve to their contexts")
	}
}

// TestFigure4FlagTransitions walks the full state machine of the
// paper's Figure 4 under transfer deferral.
func TestFigure4FlagTransitions(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 256)

	assertState := func(step string, alloc, toDev, toSwap bool) {
		t.Helper()
		if pte.IsAllocated != alloc || pte.ToCopy2Dev != toDev || pte.ToCopy2Swap != toSwap {
			t.Fatalf("%s: state = %v/%v/%v, want %v/%v/%v", step,
				pte.IsAllocated, pte.ToCopy2Dev, pte.ToCopy2Swap, alloc, toDev, toSwap)
		}
	}

	assertState("malloc", false, false, false) // F/F/F
	if err := m.CopyHD(pte, 0, []byte{1, 2, 3}, 0, ops); err != nil {
		t.Fatal(err)
	}
	assertState("copyHD", false, true, false) // F/T/F
	if ops.hdCopies != 0 || ops.mallocs != 0 {
		t.Error("deferred copyHD touched the device")
	}

	// launch: alloc + deferred transfer, then kernel dirties the entry.
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	m.MarkKernelEffects([]*PTE{pte}, nil)
	assertState("launch", true, false, true) // T/F/T
	if ops.mallocs != 1 || ops.hdCopies != 1 {
		t.Errorf("launch did %d mallocs, %d HD copies; want 1, 1", ops.mallocs, ops.hdCopies)
	}

	// copyDH: pulls device data to swap, entry synced.
	if _, err := m.CopyDH(pte, 0, 3, ops); err != nil {
		t.Fatal(err)
	}
	assertState("copyDH", true, false, false) // T/F/F

	// copyHD over a synced resident entry (deferred): swap newer.
	if err := m.CopyHD(pte, 0, []byte{9, 9, 9}, 0, ops); err != nil {
		t.Fatal(err)
	}
	assertState("copyHD resident", true, true, false) // T/T/F

	// swap: free device, data only on host.
	if _, err := m.SwapOutEntries([]*PTE{pte}, ops); err != nil {
		t.Fatal(err)
	}
	assertState("swap", false, true, false) // F/T/F
	if ops.frees != 1 {
		t.Errorf("swap did %d frees, want 1", ops.frees)
	}
}

func TestCopyHDBoundsChecked(t *testing.T) {
	m := New(true, 0)
	pte := mustMalloc(t, m, 1, 10)
	if err := m.CopyHD(pte, 0, make([]byte, 11), 0, nil); !errors.Is(err, api.ErrSizeMismatch) {
		t.Errorf("oversized CopyHD err = %v, want ErrSizeMismatch", err)
	}
	if err := m.CopyHD(pte, 8, make([]byte, 4), 0, nil); !errors.Is(err, api.ErrSizeMismatch) {
		t.Errorf("out-of-bounds offset CopyHD err = %v, want ErrSizeMismatch", err)
	}
	if _, err := m.CopyDH(pte, 8, 4, nil); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("out-of-bounds CopyDH err = %v, want ErrInvalidValue", err)
	}
	if got := m.Stats().BadOpsRejected; got != 3 {
		t.Errorf("BadOpsRejected = %d, want 3", got)
	}
}

func TestCopyDHFromSwapWithoutDevice(t *testing.T) {
	// Data written host-side can be read back before any launch, with
	// no device at all (nil ops): everything is served from swap.
	m := New(true, 0)
	pte := mustMalloc(t, m, 1, 16)
	if err := m.CopyHD(pte, 0, []byte{5, 6, 7, 8}, 0, nil); err != nil {
		t.Fatal(err)
	}
	out, err := m.CopyDH(pte, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{6, 7}) {
		t.Errorf("CopyDH = %v, want [6 7]", out)
	}
}

func TestSyntheticEntriesCarryNoBytes(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 30)
	pte := mustMalloc(t, m, 1, 1<<20)
	if err := m.CopyHD(pte, 0, nil, 1<<20, ops); err != nil {
		t.Fatal(err)
	}
	if pte.HasData() {
		t.Error("synthetic CopyHD materialised swap data")
	}
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	m.MarkKernelEffects([]*PTE{pte}, nil)
	out, err := m.CopyDH(pte, 0, 1<<20, ops)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("synthetic CopyDH returned bytes")
	}
}

func TestWriteThroughWithoutDeferral(t *testing.T) {
	m := New(false, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 64)
	// Before first residency, writes still go to swap only.
	if err := m.CopyHD(pte, 0, []byte{1}, 0, ops); err != nil {
		t.Fatal(err)
	}
	if ops.hdCopies != 0 {
		t.Error("pre-binding write should not touch the device even without deferral")
	}
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	hd := ops.hdCopies
	if err := m.CopyHD(pte, 0, []byte{2}, 0, ops); err != nil {
		t.Fatal(err)
	}
	if ops.hdCopies != hd+1 {
		t.Error("resident write should go through to the device without deferral")
	}
	if pte.ToCopy2Dev {
		t.Error("write-through should leave nothing deferred")
	}
}

func TestCoalescingCountsSavedTransfers(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 64)
	for i := 0; i < 5; i++ {
		if err := m.CopyHD(pte, uint64(i), []byte{byte(i)}, 0, ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	if ops.hdCopies != 1 {
		t.Errorf("5 deferred writes produced %d transfers, want 1 bulk transfer", ops.hdCopies)
	}
	if got := m.Stats().CoalescedWrites; got != 4 {
		t.Errorf("CoalescedWrites = %d, want 4", got)
	}
}

func TestPartialCopyHDOverDirtyEntrySyncsFirst(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 4)
	if err := m.CopyHD(pte, 0, []byte{1, 2, 3, 4}, 0, ops); err != nil {
		t.Fatal(err)
	}
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	m.MarkKernelEffects([]*PTE{pte}, nil)
	// Kernel wrote 9s on the device.
	ops.poke(pte.Device, []byte{9, 9, 9, 9})
	// Partial host write of one byte must not lose the other three 9s.
	if err := m.CopyHD(pte, 0, []byte{7}, 0, ops); err != nil {
		t.Fatal(err)
	}
	out, err := m.CopyDH(pte, 0, 4, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{7, 9, 9, 9}) {
		t.Errorf("after partial write, data = %v, want [7 9 9 9]", out)
	}
}

// pagePattern fills a buffer with bytes that differ from page to page.
func pagePattern(page int, size uint64) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(j*7 + page)
	}
	return data
}

// TestPullDeviceCopy pins the shared guard's semantics: reads always
// pull a device-newer copy, partial writes pull it (and fail unbound),
// full-extent writes never pull.
func TestPullDeviceCopy(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 512)
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatalf("MakeResident: %v", err)
	}
	devData := pagePattern(3, 512)
	ops.poke(pte.Device, devData)
	m.MarkKernelEffects([]*PTE{pte}, nil)

	// Read: pulls the device copy.
	out, err := m.CopyDH(pte, 0, 512, ops)
	if err != nil || !bytes.Equal(out, devData) {
		t.Fatalf("CopyDH on device-newer entry: err %v, match %v", err, bytes.Equal(out, devData))
	}
	if pte.ToCopy2Swap {
		t.Fatal("ToCopy2Swap still set after read pull")
	}

	// Partial write while unbound: must fail, the device-newer bytes
	// around the write cannot be fetched.
	m.MarkKernelEffects([]*PTE{pte}, nil)
	if err := m.CopyHD(pte, 8, []byte{1, 2, 3}, 0, nil); !errors.Is(err, api.ErrInvalidValue) {
		t.Fatalf("partial CopyHD unbound on device-newer entry = %v, want ErrInvalidValue", err)
	}

	// Full overwrite while unbound: allowed, nothing to pull.
	full := pagePattern(4, 512)
	if err := m.CopyHD(pte, 0, full, 0, nil); err != nil {
		t.Fatalf("full CopyHD unbound on device-newer entry: %v", err)
	}
	if out, _ := m.CopyDH(pte, 0, 512, nil); !bytes.Equal(out, full) {
		t.Fatal("full overwrite content lost")
	}

	// Partial write while bound: pulls the device copy, then overlays.
	dev2 := pagePattern(5, 512)
	ops.poke(pte.Device, dev2)
	m.MarkKernelEffects([]*PTE{pte}, nil)
	patch := []byte{9, 9, 9}
	if err := m.CopyHD(pte, 100, patch, 0, ops); err != nil {
		t.Fatalf("partial CopyHD bound: %v", err)
	}
	want := append([]byte(nil), dev2...)
	copy(want[100:], patch)
	if out, _ := m.CopyDH(pte, 0, 512, ops); !bytes.Equal(out, want) {
		t.Fatal("partial write did not overlay the pulled device copy")
	}
}

func TestSwapOutPreservesDirtyData(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 4)
	if err := m.CopyHD(pte, 0, []byte{1, 2, 3, 4}, 0, ops); err != nil {
		t.Fatal(err)
	}
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	m.MarkKernelEffects([]*PTE{pte}, nil)
	ops.poke(pte.Device, []byte{40, 41, 42, 43}) // kernel output
	if s, err := m.SwapOutEntries([]*PTE{pte}, ops); err != nil || s != (Spilled{Entries: 1, Bytes: 4}) {
		t.Fatalf("SwapOutEntries = %+v, %v; want 1 entry and 4 bytes", s, err)
	}
	// Re-bind on a *different* device: data must follow.
	ops2 := newFakeOps(1 << 20)
	if err := m.MakeResident(pte, ops2); err != nil {
		t.Fatal(err)
	}
	out, err := m.CopyDH(pte, 0, 4, ops2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{40, 41, 42, 43}) {
		t.Errorf("data after swap + rebind = %v, want [40 41 42 43]", out)
	}
	st := m.Stats()
	if st.SwapOps != 1 || st.SwapBytes != 4 {
		t.Errorf("swap stats = %+v", st)
	}
}

func TestSwapOutAllAndUsage(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	sp := m.SetLane(5, 0)
	for i := 0; i < 3; i++ {
		pte := mustMalloc(t, m, 5, 100)
		if err := m.MakeResident(pte, ops); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ResidentBytesIn(sp); got != 300 {
		t.Errorf("ResidentBytesIn = %d, want 300", got)
	}
	s, err := m.SwapOutAllIn(sp, ops)
	if err != nil || s.Entries != 3 {
		t.Fatalf("SwapOutAllIn = %+v, %v", s, err)
	}
	if got := m.ResidentBytesIn(sp); got != 0 {
		t.Errorf("ResidentBytesIn after SwapOutAllIn = %d", got)
	}
	if got := sp.Usage(); got != 300 {
		t.Errorf("Usage after SwapOutAllIn = %d, want 300 (still allocated virtually)", got)
	}
	if ops.used != 0 {
		t.Errorf("device still holds %d bytes after SwapOutAllIn", ops.used)
	}
}

func TestMakeResidentPropagatesOOM(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(100)
	pte := mustMalloc(t, m, 1, 200)
	if err := m.MakeResident(pte, ops); !errors.Is(err, api.ErrMemoryAllocation) {
		t.Errorf("MakeResident on tiny device err = %v, want ErrMemoryAllocation", err)
	}
	if pte.IsAllocated {
		t.Error("failed MakeResident left entry marked allocated")
	}
}

func TestCheckpointFlushesDirtyEntries(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	a := mustMalloc(t, m, 1, 4)
	b := mustMalloc(t, m, 1, 4)
	for _, p := range []*PTE{a, b} {
		if err := m.MakeResident(p, ops); err != nil {
			t.Fatal(err)
		}
	}
	m.MarkKernelEffects([]*PTE{a}, nil) // only a is dirty
	ops.poke(a.Device, []byte{1, 1, 1, 1})
	flushed, err := m.Checkpoint(1, ops)
	if err != nil || flushed != 4 {
		t.Fatalf("Checkpoint = %d, %v; want a's 4 bytes flushed", flushed, err)
	}
	if a.ToCopy2Swap || !a.IsAllocated {
		t.Error("checkpoint should flush but keep residency")
	}
	// Device state now recoverable without the device.
	out, err := m.CopyDH(a, 0, 4, nil)
	if err != nil || !bytes.Equal(out, []byte{1, 1, 1, 1}) {
		t.Errorf("post-checkpoint swap copy = %v, %v", out, err)
	}
}

func TestInvalidateResidencyMarksLost(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	a := mustMalloc(t, m, 1, 4)
	b := mustMalloc(t, m, 1, 4)
	for _, p := range []*PTE{a, b} {
		if err := m.MakeResident(p, ops); err != nil {
			t.Fatal(err)
		}
	}
	m.MarkKernelEffects([]*PTE{a}, nil)
	lost := m.InvalidateResidency(a.owner)
	if lost != 1 {
		t.Errorf("InvalidateResidency lost = %d, want 1", lost)
	}
	if !a.LostDirty || b.LostDirty {
		t.Error("LostDirty marks wrong")
	}
	if a.IsAllocated || b.IsAllocated {
		t.Error("entries still marked resident after invalidation")
	}
	m.ClearLost(a.owner)
	if a.LostDirty {
		t.Error("ClearLost did not clear")
	}
}

func TestReadOnlyKernelArgsStaySynced(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	in := mustMalloc(t, m, 1, 4)
	out := mustMalloc(t, m, 1, 4)
	for _, p := range []*PTE{in, out} {
		if err := m.MakeResident(p, ops); err != nil {
			t.Fatal(err)
		}
	}
	m.MarkKernelEffects([]*PTE{in, out}, []bool{true, false})
	if in.ToCopy2Swap {
		t.Error("read-only arg marked dirty")
	}
	if !out.ToCopy2Swap {
		t.Error("written arg not marked dirty")
	}
}

func TestFreeReleasesEverything(t *testing.T) {
	m := New(true, 100)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 64)
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(pte, ops); err != nil {
		t.Fatal(err)
	}
	if ops.frees != 1 || ops.used != 0 {
		t.Error("Free did not release device memory")
	}
	if got := pte.owner.Usage(); got != 0 {
		t.Errorf("Usage after Free = %d", got)
	}
	if _, _, err := m.Resolve(pte.Virtual); err == nil {
		t.Error("freed entry still resolvable")
	}
	// Swap headroom returned: a new 100-byte alloc must fit the limit.
	if _, err := m.Malloc(1, 100, KindLinear); err != nil {
		t.Errorf("Malloc after Free err = %v", err)
	}
}

func TestNestedPointerPatching(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	member := mustMalloc(t, m, 1, 32)
	parent := mustMalloc(t, m, 1, 24)
	if err := m.CopyHD(member, 0, []byte("member-data"), 0, ops); err != nil {
		t.Fatal(err)
	}
	// Parent embeds the member's virtual pointer at offset 8.
	img := make([]byte, 24)
	putU64(img[8:], uint64(member.Virtual))
	if err := m.CopyHD(parent, 0, img, 0, ops); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterNested(parent, []api.DevPtr{member.Virtual}, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	if err := m.MakeResident(parent, ops); err != nil {
		t.Fatal(err)
	}
	if !member.IsAllocated {
		t.Fatal("member not made resident with parent")
	}
	// Device image must hold the member's *device* address.
	devImg := ops.bufs[parent.Device]
	got := uint64(devImg[8]) | uint64(devImg[9])<<8 | uint64(devImg[10])<<16 | uint64(devImg[11])<<24 |
		uint64(devImg[12])<<32 | uint64(devImg[13])<<40 | uint64(devImg[14])<<48 | uint64(devImg[15])<<56
	if got != uint64(member.Device) {
		t.Errorf("device image embeds %#x, want member device ptr %#x", got, uint64(member.Device))
	}
	// Swap image must keep the virtual address.
	out, err := m.CopyDH(parent, 8, 8, ops)
	if err != nil {
		t.Fatal(err)
	}
	var swapPtr uint64
	for i := 7; i >= 0; i-- {
		swapPtr = swapPtr<<8 | uint64(out[i])
	}
	if swapPtr != uint64(member.Virtual) {
		t.Errorf("swap image embeds %#x, want virtual ptr %#x", swapPtr, uint64(member.Virtual))
	}
}

func TestRegisterNestedValidation(t *testing.T) {
	m := New(true, 0)
	parent := mustMalloc(t, m, 1, 16)
	other := mustMalloc(t, m, 2, 16) // different context
	if err := m.RegisterNested(parent, []api.DevPtr{other.Virtual}, []uint64{0}); err == nil {
		t.Error("cross-context nested registration should fail")
	}
	member := mustMalloc(t, m, 1, 16)
	if err := m.RegisterNested(parent, []api.DevPtr{member.Virtual}, []uint64{12}); err == nil {
		t.Error("offset without room for a pointer should fail")
	}
	if err := m.RegisterNested(parent, []api.DevPtr{member.Virtual}, []uint64{0, 8}); err == nil {
		t.Error("mismatched members/offsets should fail")
	}
	if err := m.RegisterNested(parent, []api.DevPtr{member.Virtual}, []uint64{8}); err != nil {
		t.Errorf("valid nested registration err = %v", err)
	}
}

func TestReleaseContext(t *testing.T) {
	m := New(true, 1000)
	ops := newFakeOps(1 << 20)
	sp := m.SetLane(9, 1)
	var pte *PTE
	for i := 0; i < 3; i++ {
		pte = mustMalloc(t, m, 9, 100)
		if err := m.MakeResident(pte, ops); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseContext(9, ops)
	if ops.used != 0 {
		t.Error("ReleaseContext leaked device memory")
	}
	if m.space(9) != nil || sp.Usage() != 0 || len(m.AppendEntriesIn(nil, sp)) != 0 {
		t.Error("ReleaseContext left table state")
	}
	if m.Stats().HostBytesInUse != 0 {
		t.Errorf("HostBytesInUse = %d after release", m.Stats().HostBytesInUse)
	}
	// A Space kept past the release resolves nothing, not even once the
	// ID's next allocation has made it a fresh one.
	mustMalloc(t, m, 9, 100)
	if _, _, err := m.ResolveIn(sp, pte.Virtual, false); !errors.Is(err, api.ErrInvalidDevicePointer) {
		t.Errorf("ResolveIn on a released Space err = %v, want ErrInvalidDevicePointer", err)
	}
	if n, b := len(m.AppendEntriesIn(nil, sp)), m.ResidentBytesIn(sp); n != 0 || b != 0 {
		t.Errorf("released Space holds %d entries, %d resident bytes", n, b)
	}
}

// TestSpaceReadsBesideShardTraffic: the owner of a Space resolves,
// registers and makes resident a nested parent, and checkpoints through
// it, with no shard lock, while contexts on the same shard allocate,
// free and are released, and another goroutine reads the owner's usage
// as the scheduler does, under no memmgr lock. Run with -race: the
// owner's reads and writes must touch nothing the others write.
func TestSpaceReadsBesideShardTraffic(t *testing.T) {
	const owner, rounds = 5, 200
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	sp := m.SetLane(owner, 1)
	var ptes []*PTE
	for i := 0; i < 4; i++ {
		pte := mustMalloc(t, m, owner, 64)
		if err := m.MakeResident(pte, ops); err != nil {
			t.Fatal(err)
		}
		ptes = append(ptes, pte)
	}
	var wg sync.WaitGroup
	for g := int64(1); g <= 3; g++ {
		id := owner + g*numShards
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				a, errA := m.Malloc(id, 64, KindLinear)
				_, errB := m.Malloc(id, 64, KindLinear)
				pte, _, errC := m.ResolveIn(m.space(id), a, true)
				if err := errors.Join(errA, errB, errC); err != nil {
					t.Error(err)
					return
				}
				if err := m.Free(pte, nil); err != nil {
					t.Error(err)
					return
				}
				m.ReleaseContext(id, nil)
			}
		}()
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if u := sp.Usage(); u != 4*64 && u != 4*64+16 {
				t.Errorf("owner usage %d, want %d or %d", u, 4*64, 4*64+16)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	foreign := api.DevPtr(virtTag | uint64(owner+numShards)<<ctxShift)
	for n := 0; n < rounds; n++ {
		for _, want := range ptes {
			if pte, off, err := m.ResolveIn(sp, want.Virtual+1, false); pte != want || off != 1 || err != nil {
				t.Fatalf("ResolveIn = %v, %d, %v; want entry %#x at 1", pte, off, err, want.Virtual)
			}
		}
		if _, _, err := m.ResolveIn(sp, foreign, false); !errors.Is(err, api.ErrInvalidDevicePointer) {
			t.Fatalf("ResolveIn of a shard neighbour's pointer err = %v", err)
		}
		v, err := m.Malloc(owner, 16, KindLinear)
		if err != nil {
			t.Fatal(err)
		}
		parent, _, err := m.ResolveIn(sp, v, true)
		if err != nil {
			t.Fatal(err)
		}
		err = errors.Join(
			m.CopyHD(parent, 0, make([]byte, 16), 16, ops),
			m.RegisterNested(parent, []api.DevPtr{ptes[0].Virtual, ptes[1].Virtual + 8}, []uint64{0, 8}),
			m.EnsureAllocated(parent, ops),
			m.FlushDeferred([]*PTE{parent}, ops))
		if err != nil {
			t.Fatal(err)
		}
		img := ops.bufs[parent.Device]
		if a, b := binary.LittleEndian.Uint64(img), binary.LittleEndian.Uint64(img[8:]); a != uint64(ptes[0].Device) || b != uint64(ptes[1].Device)+8 {
			t.Fatalf("resident parent embeds %#x, %#x; want %#x, %#x", a, b, uint64(ptes[0].Device), uint64(ptes[1].Device)+8)
		}
		m.MarkKernelEffects(ptes, nil)
		if flushed, err := m.CheckpointIn(sp, ops); flushed != 4*64 || err != nil {
			t.Fatalf("CheckpointIn = %d, %v; want %d, nil", flushed, err, 4*64)
		}
		if err := m.Free(parent, ops); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if st := m.Stats(); st.Checkpoints != rounds || st.CheckpointBytes != rounds*4*64 || st.HostBytesInUse != 4*64 {
		t.Errorf("stats %+v: want %d checkpoints of %d bytes and only the owner's %d host bytes", st, rounds, 4*64, 4*64)
	}
}

// TestIntraAppSwapMatmul reproduces the §4.5 walk-through: three square
// matrices of which only two fit the device at once. The sequence
// fails on the bare allocation path but succeeds when the launch path
// swaps out the entry the next kernel does not need.
func TestIntraAppSwapMatmul(t *testing.T) {
	const matrix = 400
	m := New(true, 0)
	ops := newFakeOps(2*matrix + 100) // room for two matrices only

	a := mustMalloc(t, m, 1, matrix) // 1. malloc A
	b := mustMalloc(t, m, 1, matrix) // 2. malloc B
	c := mustMalloc(t, m, 1, matrix) // 3. malloc C — no error under gvrt!
	if err := m.CopyHD(a, 0, nil, matrix, ops); err != nil {
		t.Fatal(err) // 4. copyHD A
	}

	// 5. matmul(A, A, B): A and B become resident.
	for _, p := range []*PTE{a, b} {
		if err := m.MakeResident(p, ops); err != nil {
			t.Fatalf("kernel 1 residency: %v", err)
		}
	}
	m.MarkKernelEffects([]*PTE{a, b}, []bool{true, false})

	// 6. matmul(B, B, C): C does not fit — swap out A (not referenced).
	if err := m.MakeResident(c, ops); !errors.Is(err, api.ErrMemoryAllocation) {
		t.Fatalf("expected OOM before intra-app swap, got %v", err)
	}
	if _, err := m.SwapOutEntries([]*PTE{a}, ops); err != nil {
		t.Fatal(err)
	}
	if err := m.MakeResident(c, ops); err != nil {
		t.Fatalf("residency after intra-app swap: %v", err)
	}
	m.MarkKernelEffects([]*PTE{b, c}, []bool{true, false})

	// 7-8. copyDH B and C succeed.
	if _, err := m.CopyDH(b, 0, matrix, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CopyDH(c, 0, matrix, ops); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SwapOps != 1 {
		t.Errorf("SwapOps = %d, want 1", m.Stats().SwapOps)
	}
}

// diesBeforeFree is a device that fails between a swap-out's copy and
// its free.
type diesBeforeFree struct{ *fakeOps }

func (diesBeforeFree) Free(api.DevPtr) (time.Duration, error) { return 0, api.ErrDeviceUnavailable }

// TestSwapOutCompleteWhenDeviceDiesBeforeFree: once the dirty data has
// reached swap, a device that dies before the free has only taken its
// own memory with it. The entry must end swapped out and SwapOutAllIn
// must succeed — reporting a failure made the runtime keep a replay log
// over a swap image that already reflected it, and every logged kernel
// was applied twice (the soak's "byte 0 = N+1").
func TestSwapOutCompleteWhenDeviceDiesBeforeFree(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 64)
	if err := m.CopyHD(pte, 0, []byte{1}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatal(err)
	}
	ops.poke(pte.Device, []byte{2}) // a kernel's output, on the device only
	m.MarkKernelEffects([]*PTE{pte}, nil)
	if s, err := m.SwapOutAllIn(m.SetLane(1, 0), diesBeforeFree{ops}); s != (Spilled{Entries: 1, Bytes: 64}) || err != nil {
		t.Fatalf("SwapOutAllIn over a device that died before the free = %+v, %v; want 1 entry and 64 bytes, nil", s, err)
	}
	if pte.IsAllocated || pte.ToCopy2Swap || !pte.ToCopy2Dev {
		t.Errorf("entry after the swap-out: %+v", pte)
	}
	if out, err := m.CopyDH(pte, 0, 1, nil); err != nil || out[0] != 2 {
		t.Errorf("swap image = %v, %v; want the kernel's output", out, err)
	}
}

// TestOneSubmissionPerOperation: every operation that moves bytes issues
// exactly one vectored submission, however many entries it moves.
func TestOneSubmissionPerOperation(t *testing.T) {
	// dirty makes n entries resident, each with real bytes, and marks
	// them written by a kernel.
	dirty := func(m *Manager, ops *fakeOps, n int) []*PTE {
		var ptes []*PTE
		for i := 0; i < n; i++ {
			pte := mustMalloc(t, m, 1, 64)
			if err := m.MakeResident(pte, ops); err != nil {
				t.Fatal(err)
			}
			ops.poke(pte.Device, []byte{byte(i + 1)})
			ptes = append(ptes, pte)
		}
		m.MarkKernelEffects(ptes, nil)
		return ptes
	}
	// Each case sets up and returns the operation whose submissions are
	// counted, and how many transfers it must carry.
	for _, tc := range []struct {
		name   string
		setup  func(m *Manager, ops *fakeOps) (op func() error, transfers int)
		hd, dh int
	}{
		{"CopyDH of a dirty entry", func(m *Manager, ops *fakeOps) (func() error, int) {
			pte := dirty(m, ops, 1)[0]
			return func() error { _, err := m.CopyDH(pte, 0, 64, ops); return err }, 1
		}, 0, 1},
		{"flush of three pending entries, one a nested parent", func(m *Manager, ops *fakeOps) (func() error, int) {
			member := mustMalloc(t, m, 1, 64)
			parent := mustMalloc(t, m, 1, 64)
			if err := m.RegisterNested(parent, []api.DevPtr{member.Virtual}, []uint64{8}); err != nil {
				t.Fatal(err)
			}
			ptes := []*PTE{parent, mustMalloc(t, m, 1, 64), mustMalloc(t, m, 1, 64)}
			for _, pte := range append(ptes, member) {
				if err := m.CopyHD(pte, 0, []byte{7}, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, pte := range ptes {
				if err := m.EnsureAllocated(pte, ops); err != nil {
					t.Fatal(err)
				}
			}
			// The member is pending too and lands with its parent.
			return func() error { return m.FlushDeferred(ptes, ops) }, 4
		}, 1, 0},
		{"Checkpoint of three dirty entries", func(m *Manager, ops *fakeOps) (func() error, int) {
			dirty(m, ops, 3)
			return func() error { _, err := m.Checkpoint(1, ops); return err }, 3
		}, 0, 1},
		{"SwapOutEntries of one", func(m *Manager, ops *fakeOps) (func() error, int) {
			ptes := dirty(m, ops, 1)
			return func() error { _, err := m.SwapOutEntries(ptes, ops); return err }, 1
		}, 0, 1},
		{"SwapOutEntries of many", func(m *Manager, ops *fakeOps) (func() error, int) {
			ptes := dirty(m, ops, 5)
			return func() error { _, err := m.SwapOutEntries(ptes, ops); return err }, 5
		}, 0, 1},
		{"write-through CopyHD", func(m *Manager, ops *fakeOps) (func() error, int) {
			pte := mustMalloc(t, m, 1, 64)
			if err := m.MakeResident(pte, ops); err != nil {
				t.Fatal(err)
			}
			m.DeferTransfers = false
			return func() error { return m.CopyHD(pte, 4, []byte{1, 2}, 0, ops) }, 1
		}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(true, 0)
			ops := newFakeOps(1 << 20)
			op, transfers := tc.setup(m, ops)
			ops.hdCalls, ops.dhCalls, ops.hdCopies, ops.dhCopies = 0, 0, 0, 0
			if err := op(); err != nil {
				t.Fatal(err)
			}
			if ops.hdCalls != tc.hd || ops.dhCalls != tc.dh {
				t.Errorf("%d h2d and %d d2h submissions, want %d and %d", ops.hdCalls, ops.dhCalls, tc.hd, tc.dh)
			}
			if got := ops.hdCopies + ops.dhCopies; got != transfers {
				t.Errorf("%d transfers, want %d", got, transfers)
			}
		})
	}
}

// TestTransfersReadNoClock: the h2d, d2h and swap_duration histograms
// observe the model time the device charged, so a cycle through every
// transfer path reads the tracer's clock only for spans — never without
// a recorder — and observes exactly what the device charged either way.
// With a recorder, each transfer's span is still recorded, ending no
// earlier than it starts.
func TestTransfersReadNoClock(t *testing.T) {
	for _, spans := range []bool{false, true} {
		var reads int
		var h2d, d2h, swapDur trace.Histogram
		tr := &trace.Tracer{
			Now: func() time.Duration {
				reads++
				return time.Duration(reads) * time.Microsecond
			},
			H2D: &h2d, D2H: &d2h, SwapDur: &swapDur,
		}
		if spans {
			tr.Rec = trace.NewRecorder(16)
		}
		m, ops := New(true, 0), newFakeOps(1<<20)
		m.SetTracer(tr)
		ptes := []*PTE{mustMalloc(t, m, 1, 64), mustMalloc(t, m, 1, 64)}
		for _, pte := range ptes {
			if err := m.CopyHD(pte, 0, []byte{1, 2, 3}, 0, nil); err != nil {
				t.Fatal(err)
			}
			if err := m.EnsureAllocated(pte, ops); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.FlushDeferred(ptes, ops); err != nil {
			t.Fatal(err)
		}
		m.MarkKernelEffects(ptes, nil)
		if _, err := m.Checkpoint(1, ops); err != nil {
			t.Fatal(err)
		}
		m.MarkKernelEffects(ptes, nil)
		if _, err := m.CopyDH(ptes[0], 0, 64, ops); err != nil {
			t.Fatal(err)
		}
		if s, err := m.SwapOutEntries(ptes, ops); err != nil || s.Entries != 2 {
			t.Fatalf("SwapOutEntries = %+v, %v; want 2 entries", s, err)
		}

		if !spans && reads != 0 {
			t.Errorf("%d clock reads without a recorder, want 0", reads)
		}
		// One h2d submission of two entries; d2h submissions of two
		// (checkpoint), one (CopyDH) and the one entry CopyDH left dirty
		// (swap-out); one swap-out freeing two entries.
		for _, c := range []struct {
			name  string
			h     *trace.Histogram
			count int64
			sum   time.Duration
		}{
			{"h2d", &h2d, 1, 2 * fakeCopyTime},
			{"d2h", &d2h, 3, 4 * fakeCopyTime},
			{"swap_duration", &swapDur, 1, 2 * fakeFreeTime},
		} {
			if s := c.h.Snapshot(); s.Count != c.count || time.Duration(s.Sum) != c.sum {
				t.Errorf("spans %v: %s count %d sum %v, want %d and %v", spans, c.name, s.Count, time.Duration(s.Sum), c.count, c.sum)
			}
		}
		if !spans {
			continue
		}
		phases := map[string]int{}
		for _, sp := range tr.Rec.Spans() {
			phases[sp.Phase]++
			if sp.End < sp.Start {
				t.Errorf("%s span ends at %v, before its start %v", sp.Phase, sp.End, sp.Start)
			}
		}
		if want := map[string]int{"h2d": 1, "d2h": 3, "swap-out": 1}; !reflect.DeepEqual(phases, want) {
			t.Errorf("spans by phase %v, want %v", phases, want)
		}
	}
}
