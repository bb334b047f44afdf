package memmgr

import (
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/cudart"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

func BenchmarkMallocResolve(b *testing.B) {
	m := New(true, 0)
	var ptrs []api.DevPtr
	for i := 0; i < 64; i++ {
		v, err := m.Malloc(1, 4096, KindLinear)
		if err != nil {
			b.Fatal(err)
		}
		ptrs = append(ptrs, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Resolve(ptrs[i%len(ptrs)] + 17); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeResidentSwapOut(b *testing.B) {
	m := New(true, 0)
	dev := newFakeOps(1 << 30)
	v, err := m.Malloc(1, 1<<20, KindLinear)
	if err != nil {
		b.Fatal(err)
	}
	pte, _, _ := m.Resolve(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MakeResident(pte, dev); err != nil {
			b.Fatal(err)
		}
		if _, err := m.SwapOutEntries([]*PTE{pte}, dev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopyHDDeferred(b *testing.B) {
	m := New(true, 0)
	v, _ := m.Malloc(1, 1<<16, KindLinear)
	pte, _, _ := m.Resolve(v)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.CopyHD(pte, uint64(i%16)*4096, data, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	m := New(true, 0)
	dev := newFakeOps(1 << 30)
	var ptes []*PTE
	for i := 0; i < 16; i++ {
		v, _ := m.Malloc(1, 1<<16, KindLinear)
		pte, _, _ := m.Resolve(v)
		if err := m.MakeResident(pte, dev); err != nil {
			b.Fatal(err)
		}
		ptes = append(ptes, pte)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarkKernelEffects(ptes, nil)
		if _, err := m.Checkpoint(1, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapOutEntriesBatch measures the batched working-set
// eviction path (one copy-engine submission for all dirty entries)
// plus the swap-in that restores residency for the next round — the
// hot cycle of the swap-pressure macro-benchmark.
func BenchmarkSwapOutEntriesBatch(b *testing.B) {
	m := New(true, 0)
	ops := newFakeOps(1 << 30)
	var ptes []*PTE
	for i := 0; i < 16; i++ {
		v, err := m.Malloc(1, 1<<20, KindLinear)
		if err != nil {
			b.Fatal(err)
		}
		pte, _, _ := m.Resolve(v)
		ptes = append(ptes, pte)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pte := range ptes {
			if err := m.EnsureAllocated(pte, ops); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.FlushDeferred(ptes, ops); err != nil {
			b.Fatal(err)
		}
		m.MarkKernelEffects(ptes, nil)
		if _, err := m.SwapOutEntries(ptes, ops); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSwapPathAllocBudget pins the steady-state cost of the §4.5
// evict/restore cycle at swap-pressure's intra geometry (23 × 128 MiB
// synthetic entries on a C2050) over a real gpu.Device and
// cudart.Context, so the device allocator, the batched DMA descriptors
// and the manager's per-context scratch are all counted: once warm, the
// whole cycle allocates nothing (the benchmark ladder's swap round trip
// read 32 objects before the buffers were reused). It runs with the ordinary suite, so a regression fails
// without a benchmark harness.
func TestSwapPathAllocBudget(t *testing.T) {
	clock := sim.NewClock(1e-9)
	crt := cudart.New(clock, gpu.NewDevice(0, gpu.TeslaC2050, clock))
	ops, err := crt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Destroy()
	m := New(true, 0)
	var ptes []*PTE
	for i := 0; i < 23; i++ {
		v, err := m.Malloc(1, 128<<20, KindLinear)
		if err != nil {
			t.Fatal(err)
		}
		pte, _, _ := m.Resolve(v)
		ptes = append(ptes, pte)
	}
	cycle := func() {
		for _, pte := range ptes {
			if err := m.EnsureAllocated(pte, ops); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.FlushDeferred(ptes, ops); err != nil {
			t.Fatal(err)
		}
		m.MarkKernelEffects(ptes, nil)
		if s, err := m.SwapOutAllIn(ptes[0].owner, ops); s.Entries != len(ptes) || err != nil {
			t.Fatalf("SwapOutAllIn = %+v, %v", s, err)
		}
	}
	cycle() // grow the scratch and the allocator's free lists once
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("evict/restore cycle allocates %v objects, want 0", got)
	}
	// Parked scratch must not pin entries or swap images: run real bytes
	// through the same path, then look behind the parked slices' length.
	var real []*PTE
	for i := 0; i < 3; i++ {
		v, _ := m.Malloc(2, 4096, KindLinear)
		pte, _, _ := m.Resolve(v)
		if err := m.CopyHD(pte, 0, pagePattern(i, 4096), 0, nil); err != nil {
			t.Fatal(err)
		}
		real = append(real, pte)
	}
	ptes = real
	cycle()
	cs := real[0].owner
	if cap(cs.hd) < len(real) {
		t.Fatal("the flush did not run as one submission")
	}
	for _, it := range cs.hd[:cap(cs.hd)] {
		if it.Data != nil {
			t.Fatal("parked DMA descriptor still references a swap image")
		}
	}
}
