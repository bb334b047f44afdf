package gpu

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"gvrt/internal/api"
)

func TestAllocatorBasic(t *testing.T) {
	a := newAllocator(0x1000, 1<<20)
	p1, ok := a.take(100)
	if !ok || p1 != 0x1000 {
		t.Fatalf("first alloc = %#x, ok=%v", p1, ok)
	}
	p2, ok := a.take(100)
	if !ok || p2 != 0x1000+allocGranularity {
		t.Fatalf("second alloc = %#x, want %#x", p2, 0x1000+allocGranularity)
	}
	if a.available() != 1<<20-2*allocGranularity {
		t.Errorf("available = %d", a.available())
	}
	if err := a.freeBlock(p1, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.freeBlock(p2, nil); err != nil {
		t.Fatal(err)
	}
	if a.available() != 1<<20 {
		t.Errorf("available after frees = %d, want %d", a.available(), 1<<20)
	}
	if len(a.free) != 1 || a.free[0] != (span{addr: 0x1000, len: 1 << 20}) {
		t.Errorf("free space not coalesced: %v", a.free)
	}
}

func TestAllocatorZeroSize(t *testing.T) {
	a := newAllocator(0, 1<<20)
	p, ok := a.take(0)
	if !ok {
		t.Fatal("zero-size alloc failed")
	}
	if n := a.used[p].len; n != allocGranularity {
		t.Errorf("zero-size alloc got %d bytes, want %d", n, allocGranularity)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := newAllocator(0, 4*allocGranularity)
	var ptrs []uint64
	for {
		p, ok := a.take(allocGranularity)
		if !ok {
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) != 4 {
		t.Fatalf("allocated %d blocks, want 4", len(ptrs))
	}
	if _, ok := a.take(1); ok {
		t.Error("alloc succeeded on exhausted arena")
	}
	for _, p := range ptrs {
		if err := a.freeBlock(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := a.take(4 * allocGranularity); !ok {
		t.Error("full-size alloc failed after freeing everything")
	}
}

func TestAllocatorFragmentation(t *testing.T) {
	// Allocate 4 blocks, free alternating ones: total free is 2 blocks
	// but the largest single allocation is 1 block: the two free
	// granules are not adjacent, so first-fit cannot join them.
	a := newAllocator(0, 4*allocGranularity)
	var ptrs []uint64
	for i := 0; i < 4; i++ {
		p, ok := a.take(allocGranularity)
		if !ok {
			t.Fatal("setup alloc failed")
		}
		ptrs = append(ptrs, p)
	}
	if err := a.freeBlock(ptrs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := a.freeBlock(ptrs[2], nil); err != nil {
		t.Fatal(err)
	}
	if a.available() != 2*allocGranularity {
		t.Errorf("available = %d, want %d", a.available(), 2*allocGranularity)
	}
	if a.largestFree() != allocGranularity {
		t.Errorf("largestFree = %d, want %d", a.largestFree(), allocGranularity)
	}
	// This is the fragmentation failure the paper's §4.5 calls out:
	// accounting says 2 blocks are free, yet a 2-block alloc fails.
	if _, ok := a.take(2 * allocGranularity); ok {
		t.Error("2-block alloc should fail on fragmented arena")
	}
}

func TestAllocatorDoubleFree(t *testing.T) {
	a := newAllocator(0, 1<<20)
	p, _ := a.take(64)
	if err := a.freeBlock(p, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.freeBlock(p, nil); err == nil {
		t.Error("double free not detected")
	}
	if err := a.freeBlock(0x9999999, nil); err == nil {
		t.Error("free of never-allocated address not detected")
	}
}

func TestAllocatorResolve(t *testing.T) {
	a := newAllocator(0x1000, 1<<20)
	p, _ := a.take(1000) // rounds to 1024
	base, off, _, ok := a.resolve(p + 500)
	if !ok || base != p || off != 500 {
		t.Errorf("resolve(p+500) = (%#x, %d, %v)", base, off, ok)
	}
	if _, _, _, ok := a.resolve(p + 2048); ok {
		t.Error("resolve past end of allocation should fail")
	}
	if _, _, _, ok := a.resolve(0x500); ok {
		t.Error("resolve below arena base should fail")
	}
}

// TestAllocatorSpanFallback pins the satisfiability guarantee the
// runtime's swap tests rely on: a request succeeds whenever one
// contiguous free span covers it, however large — the near-capacity
// tenant buffer (600 KiB on a 1 MiB device) behind two reservations.
func TestAllocatorSpanFallback(t *testing.T) {
	a := newAllocator(0, 1<<20)
	// Two context reservations, as the runtime carves per vGPU.
	for i := 0; i < 2; i++ {
		if _, ok := a.take(1024); !ok {
			t.Fatal("reservation alloc failed")
		}
	}
	// 600 KiB is more than half the arena, but the span behind the
	// reservations covers it.
	p, ok := a.take(600 << 10)
	if !ok {
		t.Fatalf("near-capacity alloc failed: largestFree=%d available=%d",
			a.largestFree(), a.available())
	}
	if _, ok := a.take(600 << 10); ok {
		t.Error("second 600 KiB alloc should not fit")
	}
	if err := a.freeBlock(p, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.take(600 << 10); !ok {
		t.Error("600 KiB alloc should fit again after free")
	}
}

// TestAllocatorInvariants property-tests the allocator against a random
// sequence of alloc/free operations: after every step the free list
// must hold (allocatorInvariantsHold), and freeing everything must
// coalesce back to a single span.
func TestAllocatorInvariants(t *testing.T) {
	const base, arena = 1 << 20, 1 << 22
	check := func(ops []uint16) bool {
		a := newAllocator(base, arena)
		var live []uint64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := uint64(op)%(128*1024) + 1
				if p, ok := a.take(size); ok {
					live = append(live, p)
				}
			} else {
				i := int(op) % len(live)
				if err := a.freeBlock(live[i], nil); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := allocatorInvariants(a, base, live); err != "" {
				t.Log(err)
				return false
			}
		}
		for _, p := range live {
			if err := a.freeBlock(p, nil); err != nil {
				return false
			}
		}
		return a.available() == arena && len(a.free) == 1 && a.free[0] == (span{addr: base, len: arena})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// allocatorInvariants checks the free list of a, whose arena starts at
// base, against the live allocations, and says what broke ("" if
// nothing did). Free spans must be sorted, never empty and never
// adjacent, and together with the live allocations they must tile the
// arena in granule-sized pieces: that makes every piece disjoint from
// the others and inside the arena, and free plus live bytes the arena.
func allocatorInvariants(a *allocator, base uint64, live []uint64) string {
	tiles := make([]span, 0, len(live)+len(a.free))
	var liveSum uint64
	for _, p := range live {
		b, ok := a.used[p]
		n := b.len
		if !ok {
			return fmt.Sprintf("live %#x has no size", p)
		}
		liveSum += n
		tiles = append(tiles, span{addr: p, len: n})
	}
	if len(live) != len(a.used) || liveSum != a.inUse {
		return fmt.Sprintf("%d live allocations of %d bytes, allocator holds %d of %d", len(live), liveSum, len(a.used), a.inUse)
	}
	for i, s := range a.free {
		if i > 0 && s.addr <= a.free[i-1].addr+a.free[i-1].len {
			return fmt.Sprintf("free spans %v and %v are unsorted, overlapping or adjacent", a.free[i-1], s)
		}
		tiles = append(tiles, s)
	}
	slices.SortFunc(tiles, func(x, y span) int { return cmp.Compare(x.addr, y.addr) })
	at := base
	for _, t := range tiles {
		if t.addr != at || t.len == 0 || t.len%allocGranularity != 0 {
			return fmt.Sprintf("%v does not continue the arena at %#x in whole granules", t, at)
		}
		at += t.len
	}
	if at != base+a.size {
		return fmt.Sprintf("pieces end at %#x, arena at %#x", at, base+a.size)
	}
	return ""
}

// TestAllocatorNonPowerOfTwoArena checks an arena whose size is not a
// power of two (real device capacities, e.g. 3 GB).
func TestAllocatorNonPowerOfTwoArena(t *testing.T) {
	const arena = 3 << 20
	a := newAllocator(0, arena)
	if got := a.largestFree(); got != arena {
		t.Fatalf("initial largestFree = %d, want %d", got, arena)
	}
	// A request above every power of two inside the arena must fit.
	p, ok := a.take(arena - (256 << 10))
	if !ok {
		t.Fatal("near-capacity alloc failed on non-power-of-two arena")
	}
	if _, ok := a.take(512 << 10); ok {
		t.Error("overcommit alloc should fail")
	}
	if _, ok := a.take(256 << 10); !ok {
		t.Error("tail alloc should fit")
	}
	if err := a.freeBlock(p, nil); err != nil {
		t.Fatal(err)
	}
	if a.available() != arena-(256<<10) {
		t.Errorf("available = %d", a.available())
	}
}

// FuzzAllocator decodes its input as a script on a small arena: each
// 9-byte record, up to 64 of them, is an opcode byte and a uint64
// operand. The opcode's high bits pick an owner slot — slot 0 is the
// device-level caller (nil), slots 1–3 hold owners — and its low two
// bits the step:
//   - 0 and 2 allocate the operand's bytes for the slot's owner — any
//     uint64, so sizes near 2^64 must be refused cleanly;
//   - 1 frees the live allocation the operand picks, after another
//     owner's attempt to free it has failed and changed nothing;
//   - 3 releases the slot's owner, or gives a retired slot a fresh one.
//
// After every step the free list must hold (allocatorInvariants) and
// each live block must carry the owner and length it was allocated
// for. An alloc must fail exactly when no free span covers the rounded
// request, or when its owner is retired, and then change nothing; a
// release must free exactly its owner's bytes.
func FuzzAllocator(f *testing.F) {
	rec := func(op byte, v uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{op}, v) }
	f.Add(rec(0, ^uint64(0)-100))
	f.Add(append(append(append(rec(0, 100), rec(0, 5000)...), rec(1, 0)...), rec(0, 1<<16)...))
	f.Add(append(append(append(rec(0, 0), rec(0, 1)...), rec(0, 1<<20)...), rec(1, 1)...))
	// Owner 1 allocates twice, owner 2 once; owner 1 is released, then
	// refused, then replaced and allocates again.
	f.Add(slices.Concat(rec(4, 100), rec(8, 5000), rec(4, 1<<16), rec(7, 0), rec(4, 256), rec(1, 0), rec(7, 0), rec(4, 256)))
	const base, arena = 1 << 40, 1 << 20
	type alloc struct {
		addr, asked uint64
		owner       *Owner
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		a := newAllocator(base, arena)
		owners := [4]*Owner{nil, new(Owner), new(Owner), new(Owner)}
		var live []alloc
		for n := 0; n < 64 && len(script) >= 9; n, script = n+1, script[9:] {
			op, v := script[0], binary.LittleEndian.Uint64(script[1:9])
			o := owners[op>>2%4]
			before, spans := a.available(), slices.Clone(a.free)
			unchanged := func() bool { return a.available() == before && slices.Equal(a.free, spans) }
			switch {
			case op%4 == 1 && len(live) > 0:
				i := int(v % uint64(len(live)))
				l := live[i]
				if other := owners[1+(op>>2)%3]; other != l.owner {
					if err := a.freeBlock(l.addr, other); err == nil || !unchanged() {
						t.Fatalf("owner %p freed %#x, allocated for %p", other, l.addr, l.owner)
					}
				}
				by := l.owner
				if l.asked == 0 {
					by = nil // no pointer of its owner addresses it
				}
				if err := a.freeBlock(l.addr, by); err != nil {
					t.Fatalf("free %#x: %v", l.addr, err)
				}
				live = slices.Delete(live, i, i+1)
			case op%4 == 3 && o != nil && o.retired:
				owners[op>>2%4] = new(Owner)
			case op%4 == 3 && o != nil:
				var mine uint64
				var kept []alloc
				for _, l := range live {
					if l.owner == o {
						mine += a.used[l.addr].len
					} else {
						kept = append(kept, l)
					}
				}
				if got := a.release(o); got != len(live)-len(kept) || a.available() != before+mine || !o.retired {
					t.Fatalf("release freed %d blocks, %d bytes; owner held %d blocks, %d bytes",
						got, a.available()-before, len(live)-len(kept), mine)
				}
				live = kept
			default:
				retired := o != nil && o.retired
				fits := false
				if v <= arena && !retired {
					need := max(roundUp(v), allocGranularity)
					for _, s := range a.free {
						fits = fits || s.len >= need
					}
				}
				p, err := a.alloc(v, v, o)
				switch {
				case (err == nil) != fits:
					t.Fatalf("alloc(%d) for %p (retired %v) err=%v, want fit %v (free spans %v)", v, o, retired, err, fits, a.free)
				case retired && err != api.ErrInvalidValue:
					t.Fatalf("alloc for a retired owner err = %v, want ErrInvalidValue", err)
				case err != nil && !unchanged():
					t.Fatalf("refused alloc(%d) changed the free list", v)
				case err == nil:
					live = append(live, alloc{addr: p, asked: v, owner: o})
				}
			}
			addrs := make([]uint64, len(live))
			for i, l := range live {
				addrs[i] = l.addr
				if b := a.used[l.addr]; b.owner != l.owner || b.asked != l.asked {
					t.Fatalf("block %#x carries owner %p, asked %d; allocated for %p, asked %d", l.addr, b.owner, b.asked, l.owner, l.asked)
				}
			}
			if err := allocatorInvariants(a, base, addrs); err != "" {
				t.Fatal(err)
			}
		}
	})
}

// take is a device-level allocation of n bytes: ok reports whether it
// was placed.
func (a *allocator) take(n uint64) (addr uint64, ok bool) {
	addr, err := a.alloc(n, n, nil)
	return addr, err == nil
}
