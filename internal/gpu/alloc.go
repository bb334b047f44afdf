package gpu

import (
	"slices"
	"sort"

	"gvrt/internal/api"
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
// Its table of live blocks is the one record of device memory: what
// each allocation holds, who owns it and the bytes behind it.
//
// allocator is not safe for concurrent use; Device serialises access.
type allocator struct {
	size uint64
	// free holds the free spans, sorted by address and never adjacent:
	// freeBlock merges a released block into any span it touches.
	free []span
	// used maps allocation address -> block.
	used map[uint64]block
	// inUse is the sum of allocated lengths.
	inUse uint64
}

type span struct{ addr, len uint64 }

// Owner marks the allocations of one address space — a CUDA context —
// in its device's table. A call made for an owner may address only the
// bytes it asked for of its own allocations; Release frees them all and
// retires the owner. The device's mu guards it.
type Owner struct{ retired bool }

// live fails with ErrInvalidValue, a destroyed context's answer, once o
// is retired. A nil owner, the device-level caller, is always live.
func (o *Owner) live() error {
	if o != nil && o.retired {
		return api.ErrInvalidValue
	}
	return nil
}

// block is one live allocation: its length rounded up to the
// granularity, the length asked for (the bytes its owner's calls may
// address; a reservation asks for none), its owner (nil for
// device-level callers) and, once real data has landed in it, the bytes
// behind it. Synthetic (timing-only) traffic never materialises buf,
// which keeps multi-gigabyte modeled workloads cheap in host RAM.
type block struct {
	len, asked uint64
	owner      *Owner
	buf        []byte
}

// addressable reports whether a call made for o may address byte off of
// b: an owner only the length it asked for of its own blocks, a
// device-level caller (nil) every byte.
func (b *block) addressable(o *Owner, off uint64) bool {
	return o == nil || b.owner == o && off < b.asked
}

func newAllocator(base, size uint64) *allocator {
	// A sub-granule tail could never be allocated anyway; drop it so
	// every span stays granule-aligned.
	size &^= allocGranularity - 1
	return &allocator{
		size: size,
		free: []span{{addr: base, len: size}},
		used: make(map[uint64]block),
	}
}

func roundUp(n uint64) uint64 {
	return (n + allocGranularity - 1) &^ uint64(allocGranularity-1)
}

// alloc reserves n bytes (rounded up to the granularity) for owner o,
// which may address asked of them, and returns the base address. It
// fails with ErrInvalidValue once o is retired and with
// ErrMemoryAllocation when no contiguous free span is large enough.
func (a *allocator) alloc(n, asked uint64, o *Owner) (addr uint64, err error) {
	if err := o.live(); err != nil {
		return 0, err
	}
	// Refuse before rounding: n within a granule of 2^64 would wrap.
	if n > a.size {
		return 0, api.ErrMemoryAllocation
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
		a.used[addr] = block{len: n, asked: asked, owner: o}
		a.inUse += n
		return addr, nil
	}
	return 0, api.ErrMemoryAllocation
}

// freeable returns the block based at addr if o may free it. It fails
// with ErrInvalidValue once o is retired and with
// ErrInvalidDevicePointer unless addr is the base of a block o may
// address.
func (a *allocator) freeable(addr uint64, o *Owner) (block, error) {
	if err := o.live(); err != nil {
		return block{}, err
	}
	b, ok := a.used[addr]
	if !ok || !b.addressable(o, 0) {
		return block{}, api.ErrInvalidDevicePointer
	}
	return b, nil
}

// freeBlock releases the allocation based at addr on o's behalf, if it
// is freeable, merging it into the free spans it touches.
func (a *allocator) freeBlock(addr uint64, o *Owner) error {
	b, err := a.freeable(addr, o)
	if err != nil {
		return err
	}
	n := b.len
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

// release frees every block o owns and retires o, so no later
// allocation lands for it. It returns how many blocks it freed.
func (a *allocator) release(o *Owner) (n int) {
	for addr, b := range a.used {
		if b.owner == o {
			_ = a.freeBlock(addr, nil) // a device-level free of a live base cannot fail
			n++
		}
	}
	o.retired = true
	return n
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
// allocation to (allocation base, offset, block). ok is false if the
// address is not inside any live allocation.
func (a *allocator) resolve(ptr uint64) (base, off uint64, b block, ok bool) {
	// DMA descriptors name allocation bases: try the exact key before
	// walking the map (tens of entries) for an interior pointer.
	if b, ok := a.used[ptr]; ok {
		return ptr, 0, b, true
	}
	for base, b := range a.used {
		if ptr >= base && ptr-base < b.len {
			return base, ptr - base, b, true
		}
	}
	return 0, 0, block{}, false
}

// backing returns the bytes behind the block b based at base,
// materialising them on first use.
func (a *allocator) backing(base uint64, b block) []byte {
	if b.buf == nil {
		b.buf = make([]byte, b.len)
		a.used[base] = b
	}
	return b.buf
}
