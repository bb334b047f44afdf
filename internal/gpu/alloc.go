package gpu

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// allocGranularity mirrors cudaMalloc's coarse alignment: every
// allocation is rounded up to a multiple of this and aligned to it.
const allocGranularity = 256

const (
	// minOrder is log2(allocGranularity): no buddy block is ever
	// smaller than one allocation granule.
	minOrder = 8
	// chunkOrder is log2 of the slab chunk size (64 KiB). Slab chunks
	// are always whole buddy blocks, so their offsets are 64 KiB
	// aligned and chunkOf() can recover the owning chunk from any
	// object offset with a mask.
	chunkOrder = 16
	chunkSize  = 1 << chunkOrder
	// maxSlabSize is the largest slab class. Power-of-two requests up
	// to this size are served from per-class slab chunks; everything
	// else goes to the buddy lists.
	maxSlabSize = 4096
)

// allocator is a hybrid buddy/slab allocator over a contiguous device
// address range, replacing the original first-fit free list (DESIGN.md
// §12). Three tiers cooperate:
//
//   - power-of-two requests ≤ maxSlabSize come from slab chunks (whole
//     64 KiB buddy blocks diced into equal objects), so small
//     allocations cluster instead of peppering the arena with holes;
//   - larger power-of-two requests take the lowest free buddy block of
//     the exact order — O(log) with zero tail waste;
//   - everything else goes through a span first-fit: the lowest run of
//     adjacent free blocks covering the request is carved across, and
//     the remainder is returned as the canonical block decomposition.
//     A free buddy block always lies inside a span of at least its own
//     size, so the allocator satisfies a request if and only if some
//     contiguous free span is large enough — exactly the first-fit
//     criterion, which is what lets near-capacity requests (e.g. a
//     600 KiB tenant buffer on a 1 MiB device) succeed where a pure
//     buddy allocator would refuse anything above half the arena.
//     Routing non-power-of-two requests straight to the span tier also
//     keeps their placement identical to the replaced first-fit
//     allocator, so the modeled-time experiments (Fig. 7 shape) stay
//     on their measured trajectory.
//
// Fragmentation still exists — the paper (§4.5) notes the runtime
// cannot rely on utilization accounting alone and must also consult
// the allocation return code — but buddy coalescing plus slab
// clustering keeps the largest free span far larger than first-fit's
// under mixed-size churn (see TestAllocatorFragmentationVsFirstFit).
//
// allocator is not safe for concurrent use; Device serialises access.
type allocator struct {
	base, size uint64
	// freeLists[k] holds the arena-relative offsets of free 2^k buddy
	// blocks, sorted ascending. Offsets are always 2^k aligned.
	freeLists [64][]uint64
	// used maps allocation offset -> length.
	used map[uint64]uint64
	// inUse is the sum of allocated lengths.
	inUse uint64
	// chunks maps slab chunk offset -> metadata for live chunks.
	chunks map[uint64]*slabChunk
	// classes[i] serves objects of size allocGranularity<<i.
	classes [5]slabClass
	// view is freeBlocks' reusable result; each call overwrites it.
	view []span
}

type span struct{ addr, len uint64 }

type slabClass struct {
	// partial holds chunks with at least one free object, used as a
	// stack so recently touched chunks fill first.
	partial []*slabChunk
}

type slabChunk struct {
	off     uint64 // arena-relative, chunkSize aligned
	class   int
	objSize uint64
	// freeObjs holds free object offsets (arena-relative), used as a
	// stack. Populated in descending order so first allocations hand
	// out ascending addresses.
	freeObjs []uint64
	live     int
}

func newAllocator(base, size uint64) *allocator {
	a := &allocator{
		base: base,
		// A sub-granule tail could never be allocated anyway; drop it
		// so the buddy decomposition stays granule-aligned.
		size:   size &^ uint64(allocGranularity-1),
		used:   make(map[uint64]uint64),
		chunks: make(map[uint64]*slabChunk),
	}
	a.insertRange(0, a.size)
	return a
}

func roundUp(n uint64) uint64 {
	return (n + allocGranularity - 1) &^ uint64(allocGranularity-1)
}

// ceilOrder returns the smallest order whose block covers n bytes,
// floored at minOrder.
func ceilOrder(n uint64) int {
	o := bits.Len64(n - 1) // n ≥ 1
	if o < minOrder {
		o = minOrder
	}
	return o
}

// alloc reserves n bytes (rounded up to the granularity) and returns
// the base address, or ok=false if no contiguous free span is large
// enough.
func (a *allocator) alloc(n uint64) (addr uint64, ok bool) {
	if n == 0 {
		n = allocGranularity
	}
	n = roundUp(n)
	pow2 := n&(n-1) == 0
	// Slab tier: only exact power-of-two class sizes, so every
	// allocation's recorded length equals its rounded request and
	// available() matches the old first-fit accounting exactly.
	if pow2 && n <= maxSlabSize {
		if off, ok := a.slabAlloc(n); ok {
			return a.base + off, true
		}
		// No chunk could be carved (tiny or exhausted arena): fall
		// through to a direct buddy/span allocation.
	}
	var off uint64
	ok = false
	if pow2 {
		off, ok = a.carve(n)
	}
	if !ok {
		off, ok = a.spanAlloc(n)
	}
	if !ok {
		return 0, false
	}
	a.used[off] = n
	a.inUse += n
	return a.base + off, true
}

// blockAlloc removes and returns the lowest free buddy block of exactly
// the given order, splitting a larger block if needed.
func (a *allocator) blockAlloc(order int) (uint64, bool) {
	for k := order; k < len(a.freeLists); k++ {
		list := a.freeLists[k]
		if len(list) == 0 {
			continue
		}
		off := list[0]
		// Shift, don't reslice: list[1:] sheds capacity insertBlock needs.
		a.freeLists[k] = append(list[:0], list[1:]...)
		// Split down, returning the upper halves. Their buddies are
		// the halves we keep splitting, so no merge can occur.
		for j := k; j > order; j-- {
			a.insertBlock(off+1<<(j-1), j-1)
		}
		return off, true
	}
	return 0, false
}

// carve allocates need bytes from a single buddy block, returning the
// tail past need to the free lists so occupancy stays exact.
func (a *allocator) carve(need uint64) (uint64, bool) {
	order := ceilOrder(need)
	if order >= len(a.freeLists) {
		return 0, false
	}
	off, ok := a.blockAlloc(order)
	if !ok {
		return 0, false
	}
	if end := off + 1<<order; end > off+need {
		a.insertRange(off+need, end)
	}
	return off, true
}

// spanAlloc is the first-fit fallback over the coalesced span view: it
// finds the lowest run of adjacent free blocks covering need bytes and
// carves the request across them.
func (a *allocator) spanAlloc(need uint64) (uint64, bool) {
	blocks := a.freeBlocks()
	for i := 0; i < len(blocks); {
		start := blocks[i].addr
		end := start + blocks[i].len
		j := i + 1
		for j < len(blocks) && blocks[j].addr == end {
			end += blocks[j].len
			j++
		}
		if end-start >= need {
			var covered uint64
			for k := i; covered < need; k++ {
				a.removeBlock(blocks[k].addr, blocks[k].len)
				covered += blocks[k].len
			}
			if covered > need {
				a.insertRange(start+need, start+covered)
			}
			return start, true
		}
		i = j
	}
	return 0, false
}

func (a *allocator) slabAlloc(n uint64) (uint64, bool) {
	ci := bits.Len64(n) - 1 - minOrder // n is a power of two ≥ allocGranularity
	c := &a.classes[ci]
	if len(c.partial) == 0 {
		// Slab chunks come from blockAlloc only: a whole buddy block
		// is chunkSize aligned, which chunkOf depends on.
		chunkOff, ok := a.blockAlloc(chunkOrder)
		if !ok {
			return 0, false
		}
		m := &slabChunk{off: chunkOff, class: ci, objSize: n}
		m.freeObjs = make([]uint64, 0, chunkSize/n)
		for o := chunkSize - n; ; o -= n {
			m.freeObjs = append(m.freeObjs, chunkOff+o)
			if o == 0 {
				break
			}
		}
		a.chunks[chunkOff] = m
		c.partial = append(c.partial, m)
	}
	m := c.partial[len(c.partial)-1]
	obj := m.freeObjs[len(m.freeObjs)-1]
	m.freeObjs = m.freeObjs[:len(m.freeObjs)-1]
	m.live++
	if len(m.freeObjs) == 0 {
		c.partial = c.partial[:len(c.partial)-1]
	}
	a.used[obj] = n
	a.inUse += n
	return obj, true
}

// freeBlock releases the allocation based at addr.
func (a *allocator) freeBlock(addr uint64) error {
	off := addr - a.base
	n, ok := a.used[off]
	if !ok {
		return fmt.Errorf("gpu: free of unallocated address %#x", addr)
	}
	delete(a.used, off)
	a.inUse -= n
	if m := a.chunks[off&^uint64(chunkSize-1)]; m != nil && n == m.objSize {
		a.slabFree(m, off)
		return nil
	}
	a.insertRange(off, off+n)
	return nil
}

func (a *allocator) slabFree(m *slabChunk, off uint64) {
	m.live--
	c := &a.classes[m.class]
	if m.live == 0 {
		// Last object gone: return the whole chunk to the buddy lists
		// so it can coalesce with neighbours.
		delete(a.chunks, m.off)
		for i, p := range c.partial {
			if p == m {
				c.partial = append(c.partial[:i], c.partial[i+1:]...)
				break
			}
		}
		a.insertBlock(m.off, chunkOrder)
		return
	}
	wasFull := len(m.freeObjs) == 0
	m.freeObjs = append(m.freeObjs, off)
	if wasFull {
		c.partial = append(c.partial, m)
	}
}

// insertBlock adds a free block of the given order, merging with its
// buddy repeatedly while the merged parent stays inside the arena.
func (a *allocator) insertBlock(off uint64, order int) {
	for order+1 < len(a.freeLists) {
		parent := off &^ (1<<(order+1) - 1)
		if parent+1<<(order+1) > a.size {
			break
		}
		buddy := off ^ 1<<order
		list := a.freeLists[order]
		i := sort.Search(len(list), func(i int) bool { return list[i] >= buddy })
		if i >= len(list) || list[i] != buddy {
			break
		}
		a.freeLists[order] = append(list[:i], list[i+1:]...)
		off = parent
		order++
	}
	list := a.freeLists[order]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= off })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = off
	a.freeLists[order] = list
}

// insertRange returns [start, end) to the free lists as the canonical
// greedy decomposition into aligned power-of-two blocks. Both bounds
// are always multiples of allocGranularity.
func (a *allocator) insertRange(start, end uint64) {
	for start < end {
		o := bits.Len64(end-start) - 1
		if start != 0 {
			if tz := bits.TrailingZeros64(start); tz < o {
				o = tz
			}
		}
		a.insertBlock(start, o)
		start += 1 << o
	}
}

// removeBlock deletes the free block of the given size at off.
func (a *allocator) removeBlock(off, size uint64) {
	order := bits.Len64(size) - 1
	list := a.freeLists[order]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= off })
	a.freeLists[order] = append(list[:i], list[i+1:]...)
}

// freeBlocks gathers every free buddy block, sorted by offset, into
// a.view: the result is valid until the next call. Offsets are unique,
// so the order does not depend on the sort being stable.
func (a *allocator) freeBlocks() []span {
	blocks := a.view[:0]
	for k := range a.freeLists {
		for _, off := range a.freeLists[k] {
			blocks = append(blocks, span{addr: off, len: 1 << k})
		}
	}
	slices.SortFunc(blocks, func(x, y span) int { return cmp.Compare(x.addr, y.addr) })
	a.view = blocks
	return blocks
}

// freeSpans reports the coalesced view of free memory: maximal runs of
// adjacent free blocks, in absolute addresses. Free space inside live
// slab chunks is not included — a chunk belongs to its class until its
// last object is freed.
func (a *allocator) freeSpans() []span {
	blocks := a.freeBlocks()
	var spans []span
	for i := 0; i < len(blocks); {
		start := blocks[i].addr
		end := start + blocks[i].len
		j := i + 1
		for j < len(blocks) && blocks[j].addr == end {
			end += blocks[j].len
			j++
		}
		spans = append(spans, span{addr: a.base + start, len: end - start})
		i = j
	}
	return spans
}

// available reports the total free bytes (which, due to fragmentation,
// may exceed the largest satisfiable single allocation).
func (a *allocator) available() uint64 { return a.size - a.inUse }

// largestFree reports the largest contiguous free span. Like the
// paper's §4.5 accounting it is advisory: slab-interior free objects
// are excluded, so a small allocation may still succeed when
// largestFree reads low.
func (a *allocator) largestFree() uint64 {
	var max uint64
	for _, s := range a.freeSpans() {
		if s.len > max {
			max = s.len
		}
	}
	return max
}

// resolve maps an address that may point into the middle of an
// allocation to (allocation base, offset). ok is false if the address
// is not inside any live allocation.
func (a *allocator) resolve(ptr uint64) (base, off uint64, ok bool) {
	p := ptr - a.base
	// DMA descriptors name allocation bases: try the exact key before
	// walking the map (tens of entries) for an interior pointer.
	if _, ok := a.used[p]; ok {
		return ptr, 0, true
	}
	for b, n := range a.used {
		if p >= b && p < b+n {
			return a.base + b, p - b, true
		}
	}
	return 0, 0, false
}

// sizeOf returns the length of the allocation based at addr.
func (a *allocator) sizeOf(addr uint64) (uint64, bool) {
	n, ok := a.used[addr-a.base]
	return n, ok
}
