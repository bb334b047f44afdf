package cudart

import (
	"fmt"
	"sort"
	"sync"

	"gvrt/internal/api"
	"gvrt/internal/gpu"
)

// Context is a CUDA context: the unit of isolation the bare runtime
// offers. It owns a set of device allocations on one device and the fat
// binaries registered by its application thread. Methods return
// api.Error codes like the real library returns cudaError_t.
//
// A Context is safe for concurrent use, though CUDA applications
// normally issue calls from a single thread per context.
type Context struct {
	rt       *Runtime
	devIndex int
	dev      *gpu.Device
	reserved api.DevPtr

	mu sync.Mutex
	// allocs is kept sorted by base pointer: ownership checks run per
	// pointer on every memcpy — and per item on batched submissions —
	// so membership must be a binary search, not a map scan.
	allocs    []allocSpan
	binaries  api.Binaries
	destroyed bool
}

// allocSpan is one device allocation of the context.
type allocSpan struct {
	base api.DevPtr
	size uint64
}

// allocIndex returns the position of the span containing ptr, or -1.
// Caller holds c.mu.
func (c *Context) allocIndex(ptr api.DevPtr) int {
	i := sort.Search(len(c.allocs), func(i int) bool { return c.allocs[i].base > ptr })
	if i > 0 {
		if sp := c.allocs[i-1]; ptr < sp.base+api.DevPtr(sp.size) {
			return i - 1
		}
	}
	return -1
}

// Device returns the device the context lives on.
func (c *Context) Device() *gpu.Device { return c.dev }

// DeviceIndex returns the ordinal of the context's device.
func (c *Context) DeviceIndex() int { return c.devIndex }

func (c *Context) live() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed {
		return api.ErrInvalidValue
	}
	return nil
}

// RegisterFatBinary mirrors __cudaRegisterFatBinary plus the per-kernel
// registration calls: it makes the binary's kernels launchable in this
// context.
func (c *Context) RegisterFatBinary(fb api.FatBinary) error {
	if err := c.live(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.binaries.Register(fb)
	return nil
}

// SetFatBinaries makes bs, in its order, the context's whole set of
// binaries. A runtime that hands one context to one application after
// another calls it at each binding, so a kernel name resolves only among
// the bound application's binaries.
func (c *Context) SetFatBinaries(bs api.Binaries) error {
	if err := c.live(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.binaries)
	c.binaries = append(c.binaries[:0], bs...)
	return nil
}

// Malloc mirrors cudaMalloc.
func (c *Context) Malloc(size uint64) (api.DevPtr, error) {
	if err := c.live(); err != nil {
		return 0, err
	}
	p, err := c.dev.Malloc(size)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	i := sort.Search(len(c.allocs), func(i int) bool { return c.allocs[i].base > p })
	c.allocs = append(c.allocs, allocSpan{})
	copy(c.allocs[i+1:], c.allocs[i:])
	c.allocs[i] = allocSpan{base: p, size: size}
	c.mu.Unlock()
	return p, nil
}

// Free mirrors cudaFree. Only pointers allocated by this context are
// valid: contexts are isolated address spaces.
func (c *Context) Free(p api.DevPtr) error {
	if err := c.live(); err != nil {
		return err
	}
	c.mu.Lock()
	i := c.allocIndex(p)
	mine := i >= 0 && c.allocs[i].base == p
	c.mu.Unlock()
	if !mine {
		return api.ErrInvalidDevicePointer
	}
	// Forget the span only once the device has let go of it: what a
	// failed device could not free is Destroy's to free when it is back.
	if err := c.dev.Free(p); err != nil {
		return err
	}
	c.mu.Lock()
	if i := c.allocIndex(p); i >= 0 && c.allocs[i].base == p {
		c.allocs = append(c.allocs[:i], c.allocs[i+1:]...)
	}
	c.mu.Unlock()
	return nil
}

// MemcpyHD mirrors cudaMemcpy(HostToDevice): a one-item MemcpyHDBatch.
// data carries real bytes or, when nil, size describes a synthetic
// (timing-only) transfer.
func (c *Context) MemcpyHD(dst api.DevPtr, data []byte, size uint64) error {
	return c.MemcpyHDBatch([]api.HDCopy{{Dst: dst, Data: data, Size: size}})
}

// ownsLocked checks that the context is live and that each of the n
// pointers ptr yields falls inside one of its allocations (pointers may
// point mid-allocation). Caller holds c.mu: a submission takes the lock
// once, not once per item.
func (c *Context) ownsLocked(n int, ptr func(i int) api.DevPtr) error {
	if c.destroyed {
		return api.ErrInvalidValue
	}
	for i := 0; i < n; i++ {
		if c.allocIndex(ptr(i)) < 0 {
			return api.ErrInvalidDevicePointer
		}
	}
	return nil
}

// MemcpyHDBatch mirrors a vectored cudaMemcpy(HostToDevice): every
// destination is validated against this context's allocations, then the
// transfers land as a single copy-engine submission (gpu.CopyInBatch).
func (c *Context) MemcpyHDBatch(items []api.HDCopy) error {
	c.mu.Lock()
	err := c.ownsLocked(len(items), func(i int) api.DevPtr { return items[i].Dst })
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.dev.CopyInBatch(items)
}

// MemcpyDH mirrors cudaMemcpy(DeviceToHost): a one-item MemcpyDHBatch.
func (c *Context) MemcpyDH(src api.DevPtr, size uint64) ([]byte, error) {
	datas, err := c.MemcpyDHBatch([]api.DHCopy{{Src: src, Size: size}})
	if datas == nil {
		return nil, err
	}
	return datas[0], nil
}

// MemcpyDHBatch lands several device→host transfers as one copy-engine
// submission (see Device.CopyOutBatch). The returned slice is parallel
// to items; entries are nil for synthetic allocations.
func (c *Context) MemcpyDHBatch(items []api.DHCopy) ([][]byte, error) {
	c.mu.Lock()
	err := c.ownsLocked(len(items), func(i int) api.DevPtr { return items[i].Src })
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c.dev.CopyOutBatch(items)
}

// argMem adapts a launch's pointer arguments to api.KernelMemory.
type argMem struct {
	dev  *gpu.Device
	ptrs []api.DevPtr
}

func (m argMem) Arg(i int) ([]byte, error) {
	if i < 0 || i >= len(m.ptrs) {
		return nil, api.ErrInvalidValue
	}
	return m.dev.Bytes(m.ptrs[i])
}

// Launch mirrors cudaConfigureCall+cudaLaunch: it validates the pointer
// arguments, occupies the device for the kernel's modeled duration
// (scaled by device speed, Repeat times) and applies the registered
// host-side implementation, if any, to the device buffers.
func (c *Context) Launch(call api.LaunchCall) error {
	// Liveness, the binary and every pointer in one hold of c.mu.
	c.mu.Lock()
	meta, binID, found := c.binaries.Find(call.Kernel)
	err := c.ownsLocked(len(call.PtrArgs), func(i int) api.DevPtr { return call.PtrArgs[i] })
	c.mu.Unlock()
	if !found && err != api.ErrInvalidValue {
		err = api.ErrNotRegistered
	}
	if err != nil {
		return err
	}
	var fn func() error
	if impl, ok := api.KernelImpl(binID, call.Kernel); ok {
		mem := argMem{dev: c.dev, ptrs: call.PtrArgs}
		fn = func() (err error) {
			// A buggy kernel implementation must surface as a launch
			// failure, like a faulting kernel on real hardware — never
			// take the runtime down.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("kernel %s panicked: %v: %w", call.Kernel, r, api.ErrLaunchFailure)
				}
			}()
			return impl(mem, call.Scalars)
		}
	}
	return c.dev.Exec(meta.BaseTime, call.Launches(), fn)
}

// Synchronize mirrors cudaDeviceSynchronize. Device operations in this
// simulation are synchronous, so this only verifies device health.
func (c *Context) Synchronize() error {
	if err := c.live(); err != nil {
		return err
	}
	if c.dev.Failed() || c.dev.Removed() {
		return api.ErrDeviceUnavailable
	}
	return nil
}

// MemoryInUse reports the bytes this context has allocated (excluding
// the runtime's own reservation).
func (c *Context) MemoryInUse() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for _, sp := range c.allocs {
		sum += sp.size
	}
	return sum
}

// Destroy mirrors cudaDeviceReset for the owning thread: it releases all
// of the context's allocations and its reservation and frees the context
// slot. Destroy is idempotent.
func (c *Context) Destroy() {
	c.mu.Lock()
	if c.destroyed {
		c.mu.Unlock()
		return
	}
	c.destroyed = true
	ptrs := make([]api.DevPtr, 0, len(c.allocs)+1)
	for _, sp := range c.allocs {
		ptrs = append(ptrs, sp.base)
	}
	c.allocs = nil
	c.mu.Unlock()

	// Best-effort cleanup: on a failed device the memory is gone anyway.
	for _, p := range ptrs {
		_ = c.dev.Free(p)
	}
	_ = c.dev.Free(c.reserved)

	c.rt.mu.Lock()
	c.rt.ctxPerDev[c.devIndex]--
	c.rt.mu.Unlock()
}
