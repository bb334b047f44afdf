package gpu

import (
	"sync"
	"testing"

	"gvrt/internal/api"
)

// swapArena is the device the swap-pressure workload runs on: a C2050
// with one CUDA context's 64 MiB reservation carved out first.
func swapArena(t *testing.T) *allocator {
	t.Helper()
	a := newAllocator(1<<40, TeslaC2050.MemBytes)
	if _, ok := a.take(64 << 20); !ok {
		t.Fatal("context reservation did not fit")
	}
	return a
}

// TestAllocatorSteadyStateAllocatesNothing pins the §4.5 swap path's
// allocator cost where it is earned: once the free list has grown to
// the workload's size, evicting and restoring a working set costs no
// heap allocation at all.
func TestAllocatorSteadyStateAllocatesNothing(t *testing.T) {
	cycles := map[string]func(a *allocator){
		// The inter-application phase: one 1600 MiB buffer.
		"1600 MiB": func(a *allocator) {
			p, ok := a.take(1600 << 20)
			if !ok {
				t.Fatal("alloc failed")
			}
			if err := a.freeBlock(p, nil); err != nil {
				t.Fatal(err)
			}
		},
		// The intra-application phase: 23 × 128 MiB.
		"23 x 128 MiB": func(a *allocator) {
			var ps [23]uint64
			for i := range ps {
				var ok bool
				if ps[i], ok = a.take(128 << 20); !ok {
					t.Fatalf("alloc %d failed", i)
				}
			}
			for _, p := range ps {
				if err := a.freeBlock(p, nil); err != nil {
					t.Fatal(err)
				}
			}
		},
		// The dispatch workloads' session buffers.
		"256 KiB": func(a *allocator) {
			p, ok := a.take(256 << 10)
			if !ok {
				t.Fatal("alloc failed")
			}
			if err := a.freeBlock(p, nil); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, cycle := range cycles {
		a := swapArena(t)
		cycle(a) // grow the free list once
		if got := testing.AllocsPerRun(100, func() { cycle(a) }); got != 0 {
			t.Errorf("%s: %v allocations per alloc/free cycle, want 0", name, got)
		}
	}
}

// TestAllocatorAddressSequenceGolden replays a fixed alloc/free script —
// requests from 100 B to 1600 MiB interleaved with frees, on a
// C2050-sized arena — and compares every returned address against the
// sequence captured from the first-fit reference allocator
// (EXPERIMENTS.md, "One device allocator"). Placement decides the
// modeled-time figures (Fig. 7), so it must not move.
func TestAllocatorAddressSequenceGolden(t *testing.T) {
	a := newAllocator(1<<40, TeslaC2050.MemBytes)
	sizes := []uint64{
		256, 4096, 1600 << 20, 128 << 20, 600 << 10, 3 << 20, 1 << 20,
		100, 65536, 7 << 20, 512, 250 << 20, 33 << 20, 2048, 5000,
	}
	var live []uint64
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * 1099511628211
			v >>= 8
		}
	}
	var first []uint64
	ok, failed := 0, 0
	for step := 0; step < 4000; step++ {
		if r := next(); len(live) > 0 && r%5 < 2 {
			i := int(next() % uint64(len(live)))
			if err := a.freeBlock(live[i], nil); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p, got := a.take(sizes[next()%uint64(len(sizes))])
		if got {
			live = append(live, p)
			ok++
		} else {
			p = 0
			failed++
		}
		mix(p)
		if len(first) < 8 {
			first = append(first, p)
		}
	}
	for i := range goldenFirst {
		if first[i] != goldenFirst[i] {
			t.Errorf("allocation %d at %#x, golden %#x", i, first[i], goldenFirst[i])
		}
	}
	if ok != goldenOK || failed != goldenFailed || h != goldenHash {
		t.Errorf("script: %d placed, %d refused, hash %#x; golden %d, %d, %#x",
			ok, failed, h, goldenOK, goldenFailed, goldenHash)
	}
}

// Captured by running the script above against the first-fit reference
// allocator, before it became the implementation.
var goldenFirst = []uint64{
	0x10000000000, 0x10000000000, 0x10000000100, 0x10000000200,
	0x10000000200, 0x10000000400, 0x10000000100, 0x10000000c00,
}

const (
	goldenOK     = 1987
	goldenFailed = 420
	goldenHash   = 0x135cc0805058418f
)

// TestAllocatorResolveBaseAndInterior holds the exact-base fast path to
// the answers of the linear walk it short-cuts, for allocation bases,
// interior pointers, one-past-the-end pointers and free memory.
func TestAllocatorResolveBaseAndInterior(t *testing.T) {
	a := newAllocator(1<<40, 1<<30)
	walk := func(ptr uint64) (base, off uint64, ok bool) {
		for b, blk := range a.used {
			if ptr >= b && ptr < b+blk.len {
				return b, ptr - b, true
			}
		}
		return 0, 0, false
	}
	var live []uint64
	for _, n := range []uint64{256, 1000, 4096, 1 << 20, 3 << 20, 600 << 10, 100} {
		p, ok := a.take(n)
		if !ok {
			t.Fatalf("alloc(%d) failed", n)
		}
		live = append(live, p)
	}
	// A hole in the middle: its base must stop resolving.
	if err := a.freeBlock(live[3], nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range live {
		n := a.used[p].len
		for _, ptr := range []uint64{p, p + 1, p + 255, p + n - 1, p + n, p - 1} {
			b, o, _, ok := a.resolve(ptr)
			wb, wo, wok := walk(ptr)
			if b != wb || o != wo || ok != wok {
				t.Errorf("resolve(%#x) = (%#x, %d, %v), linear walk says (%#x, %d, %v)", ptr, b, o, ok, wb, wo, wok)
			}
		}
	}
	if b, o, _, ok := a.resolve(live[1]); !ok || b != live[1] || o != 0 {
		t.Errorf("resolve(base) = (%#x, %d, %v)", b, o, ok)
	}
	if _, _, _, ok := a.resolve(live[3]); ok {
		t.Error("freed base still resolves")
	}
}

// TestDeviceBatchCopiesAllocateNothing covers the other per-swap cost in
// this package: a synthetic batched d2h + h2d pair keeps nothing per
// item and returns no per-item result slice.
func TestDeviceBatchCopiesAllocateNothing(t *testing.T) {
	d := testDevice()
	var in []api.HDCopy
	var out []api.DHCopy
	for i := 0; i < 23; i++ {
		p, err := d.Malloc(128 << 20)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, api.HDCopy{Dst: p, Size: 128 << 20})
		out = append(out, api.DHCopy{Src: p, Size: 128 << 20})
	}
	cycle := func() {
		datas, err := d.CopyOutBatch(out)
		if err != nil || datas != nil {
			t.Fatalf("CopyOutBatch = %v, %v; want nil, nil for synthetic traffic", datas, err)
		}
		if err := d.CopyInBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("batched copy pair allocates %v objects, want 0", got)
	}
	// Real bytes still come back, parallel to the request.
	synthetic, _ := d.Malloc(4096)
	real, _ := d.Malloc(4096)
	if err := d.CopyIn(real, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	datas, err := d.CopyOutBatch([]api.DHCopy{{Src: synthetic, Size: 3}, {Src: real, Size: 3}})
	if err != nil || len(datas) != 2 || datas[0] != nil || string(datas[1]) != "\x01\x02\x03" {
		t.Errorf("CopyOutBatch with real backing = %v, %v", datas, err)
	}
}

// TestDeviceBatchCopiesConcurrent drives both engines from several
// goroutines at once with real bytes: every transfer must land in — and
// come back from — its own allocation. Run with -race.
func TestDeviceBatchCopiesConcurrent(t *testing.T) {
	d := testDevice()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var in []api.HDCopy
			var out []api.DHCopy
			for i := 0; i < 3+g; i++ {
				p, err := d.Malloc(4096)
				if err != nil {
					t.Error(err)
					return
				}
				in = append(in, api.HDCopy{Dst: p, Data: []byte{byte(g), byte(i)}})
				out = append(out, api.DHCopy{Src: p, Size: 2})
			}
			for n := 0; n < 50; n++ {
				if err := d.CopyInBatch(in); err != nil {
					t.Error(err)
					return
				}
				datas, err := d.CopyOutBatch(out)
				if err != nil || len(datas) != len(out) {
					t.Errorf("CopyOutBatch = %d results, %v", len(datas), err)
					return
				}
				for i, data := range datas {
					if data[0] != byte(g) || data[1] != byte(i) {
						t.Errorf("goroutine %d item %d read back %v", g, i, data)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
