package gpu

import (
	"fmt"
	"slices"
	"sort"
)

// allocGranularity mirrors cudaMalloc's coarse alignment: every
// allocation is rounded up to a multiple of this and aligned to it.
const allocGranularity = 256

// allocator is a first-fit free list over a contiguous device address
// range (DESIGN.md §12). A request takes the lowest free span that
// covers it, so it fails exactly when no contiguous free span is large
// enough — cudaMalloc's contract, and the return code the paper's §4.5
// reacts to: accounting alone cannot tell whether a request fits.
//
// allocator is not safe for concurrent use; Device serialises access.
type allocator struct {
	size uint64
	// free holds the free spans, sorted by address and never adjacent:
	// freeBlock merges a released block into any span it touches.
	free []span
	// used maps allocation address -> length.
	used map[uint64]uint64
	// inUse is the sum of allocated lengths.
	inUse uint64
}

type span struct{ addr, len uint64 }

func newAllocator(base, size uint64) *allocator {
	// A sub-granule tail could never be allocated anyway; drop it so
	// every span stays granule-aligned.
	size &^= allocGranularity - 1
	return &allocator{
		size: size,
		free: []span{{addr: base, len: size}},
		used: make(map[uint64]uint64),
	}
}

func roundUp(n uint64) uint64 {
	return (n + allocGranularity - 1) &^ uint64(allocGranularity-1)
}

// alloc reserves n bytes (rounded up to the granularity) and returns
// the base address, or ok=false if no contiguous free span is large
// enough.
func (a *allocator) alloc(n uint64) (addr uint64, ok bool) {
	// Refuse before rounding: n within a granule of 2^64 would wrap.
	if n > a.size {
		return 0, false
	}
	n = max(roundUp(n), allocGranularity)
	for i := range a.free {
		s := &a.free[i]
		if s.len < n {
			continue
		}
		addr = s.addr
		s.addr += n
		s.len -= n
		if s.len == 0 {
			a.free = slices.Delete(a.free, i, i+1)
		}
		a.used[addr] = n
		a.inUse += n
		return addr, true
	}
	return 0, false
}

// freeBlock releases the allocation based at addr, merging it into the
// free spans it touches.
func (a *allocator) freeBlock(addr uint64) error {
	n, ok := a.used[addr]
	if !ok {
		return fmt.Errorf("gpu: free of unallocated address %#x", addr)
	}
	delete(a.used, addr)
	a.inUse -= n
	// a.free[i] is the first span above the block.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > addr })
	below := i > 0 && a.free[i-1].addr+a.free[i-1].len == addr
	above := i < len(a.free) && a.free[i].addr == addr+n
	switch {
	case below && above:
		a.free[i-1].len += n + a.free[i].len
		a.free = slices.Delete(a.free, i, i+1)
	case below:
		a.free[i-1].len += n
	case above:
		a.free[i].addr = addr
		a.free[i].len += n
	default:
		a.free = slices.Insert(a.free, i, span{addr: addr, len: n})
	}
	return nil
}

// available reports the total free bytes (which, due to fragmentation,
// may exceed the largest satisfiable single allocation).
func (a *allocator) available() uint64 { return a.size - a.inUse }

// largestFree reports the largest contiguous free span: the largest
// request alloc can satisfy.
func (a *allocator) largestFree() uint64 {
	var max uint64
	for _, s := range a.free {
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
	// DMA descriptors name allocation bases: try the exact key before
	// walking the map (tens of entries) for an interior pointer.
	if _, ok := a.used[ptr]; ok {
		return ptr, 0, true
	}
	for b, n := range a.used {
		if ptr >= b && ptr-b < n {
			return b, ptr - b, true
		}
	}
	return 0, 0, false
}

// sizeOf returns the length of the allocation based at addr.
func (a *allocator) sizeOf(addr uint64) (uint64, bool) {
	n, ok := a.used[addr]
	return n, ok
}
