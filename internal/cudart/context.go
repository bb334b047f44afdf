package cudart

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// owner marks the context's allocations, and its reservation, in the
	// device's table: the device checks every pointer the context passes
	// against it, and Destroy releases them all at once.
	owner     gpu.Owner
	destroyed atomic.Bool

	mu       sync.Mutex // guards binaries
	binaries api.Binaries
}

// Device returns the device the context lives on.
func (c *Context) Device() *gpu.Device { return c.dev }

// DeviceIndex returns the ordinal of the context's device.
func (c *Context) DeviceIndex() int { return c.devIndex }

func (c *Context) live() error {
	if c.destroyed.Load() {
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

// Malloc mirrors cudaMalloc. A size of zero is refused with
// ErrInvalidValue and takes no device memory.
func (c *Context) Malloc(size uint64) (api.DevPtr, error) {
	if err := c.live(); err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, api.ErrInvalidValue
	}
	return c.dev.MallocAs(&c.owner, size, size)
}

// Free mirrors cudaFree. Only pointers allocated by this context are
// valid: contexts are isolated address spaces. It returns the model time
// the device charged (gpu.FreeTime, or nothing when it refused).
func (c *Context) Free(p api.DevPtr) (time.Duration, error) { return c.dev.FreeAs(&c.owner, p) }

// MemcpyHD mirrors cudaMemcpy(HostToDevice): a one-item MemcpyHDBatch.
// data carries real bytes or, when nil, size describes a synthetic
// (timing-only) transfer.
func (c *Context) MemcpyHD(dst api.DevPtr, data []byte, size uint64) error {
	_, err := c.MemcpyHDBatch([]api.HDCopy{{Dst: dst, Data: data, Size: size}})
	return err
}

// MemcpyHDBatch mirrors a vectored cudaMemcpy(HostToDevice): every
// destination must lie inside one of this context's allocations (a
// pointer may point mid-allocation), then the transfers land as a
// single copy-engine submission (gpu.CopyInBatch). It returns the model
// time the submission charged (gpu.Device.CopyInAs).
func (c *Context) MemcpyHDBatch(items []api.HDCopy) (time.Duration, error) {
	return c.dev.CopyInAs(&c.owner, items)
}

// MemcpyDH mirrors cudaMemcpy(DeviceToHost): a one-item MemcpyDHBatch.
func (c *Context) MemcpyDH(src api.DevPtr, size uint64) ([]byte, error) {
	datas, _, err := c.MemcpyDHBatch([]api.DHCopy{{Src: src, Size: size}})
	if datas == nil {
		return nil, err
	}
	return datas[0], nil
}

// MemcpyDHBatch lands several device→host transfers as one copy-engine
// submission (see Device.CopyOutBatch). The returned slice is parallel
// to items; entries are nil for synthetic allocations. The duration is
// the model time the submission charged.
func (c *Context) MemcpyDHBatch(items []api.DHCopy) ([][]byte, time.Duration, error) {
	return c.dev.CopyOutAs(&c.owner, items)
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
	if err := c.live(); err != nil {
		return err
	}
	c.mu.Lock()
	meta, binID, found := c.binaries.Find(call.Kernel)
	c.mu.Unlock()
	if !found {
		return api.ErrNotRegistered
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
	return c.dev.ExecAs(&c.owner, call.PtrArgs, meta.BaseTime, call.Launches(), fn)
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

// Destroy mirrors cudaDeviceReset for the owning thread: it releases all
// of the context's allocations and its reservation and frees the context
// slot. Destroy is idempotent.
func (c *Context) Destroy() {
	if c.destroyed.Swap(true) {
		return
	}
	c.dev.Release(&c.owner)
	c.rt.mu.Lock()
	c.rt.ctxPerDev[c.devIndex]--
	c.rt.mu.Unlock()
}
