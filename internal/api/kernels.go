package api

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// KernelMemory gives a kernel implementation access to the device
// buffers named by its pointer arguments. Implementations see each
// argument's whole allocation as a byte slice, exactly as a real kernel
// sees raw device memory.
type KernelMemory interface {
	// Arg returns the backing bytes of the i-th pointer argument,
	// starting at the argument's offset within its allocation. Mutations
	// are visible to subsequent kernels and to device→host copies.
	Arg(i int) ([]byte, error)
}

// KernelFunc is the host-side implementation of a kernel's data
// transformation. It stands in for the device machine code inside a fat
// binary: when present, launching the kernel also applies the
// transformation to the (simulated) device buffers, so applications
// observe real data flow end-to-end. Timing is modeled separately by
// KernelMeta.BaseTime; a KernelFunc must not sleep.
//
// A nil implementation is legal: the launch is then timing-only, which
// is all the paper's evaluation requires.
type KernelFunc func(mem KernelMemory, scalars []uint64) error

// kernel implementations are process-local, keyed by fat-binary ID and
// kernel name — the moral equivalent of the device code being present
// wherever the fat binary has been shipped. Both the client process and
// a daemon process link the same workload package, so both sides have
// the registry populated, mirroring how real fat binaries travel with
// the application to whichever node executes them. Copy-on-write: a
// launch's lookup is one atomic load; a registration copies the map.
var (
	implMu sync.Mutex
	impls  atomic.Pointer[map[implKey]KernelFunc]
)

type implKey struct{ binaryID, kernel string }

func init() { impls.Store(&map[implKey]KernelFunc{}) }

// RegisterKernelImpl installs the host-side implementation for kernel
// name within fat binary binaryID. Passing nil removes a previous
// registration. Re-registering an identical name is allowed (packages
// may be initialised once per process but described in several places).
func RegisterKernelImpl(binaryID, kernel string, fn KernelFunc) {
	implMu.Lock()
	defer implMu.Unlock()
	m := maps.Clone(*impls.Load())
	if fn == nil {
		delete(m, implKey{binaryID, kernel})
	} else {
		m[implKey{binaryID, kernel}] = fn
	}
	impls.Store(&m)
}

// KernelImpl looks up the host-side implementation for a kernel; the
// second result reports whether one is registered.
func KernelImpl(binaryID, kernel string) (KernelFunc, bool) {
	fn, ok := (*impls.Load())[implKey{binaryID, kernel}]
	return fn, ok
}

// Binaries is the set of fat binaries a context has registered, in
// registration order. A kernel name two binaries define resolves to the
// first-registered one, the same on every launch and in every layer.
type Binaries []FatBinary

// Register adds fb; a binary re-registered under its ID is replaced in
// place.
func (bs *Binaries) Register(fb FatBinary) {
	for i := range *bs {
		if (*bs)[i].ID == fb.ID {
			(*bs)[i] = fb
			return
		}
	}
	*bs = append(*bs, fb)
}

// Find returns the metadata of the named kernel and the ID of the
// binary it resolves to; ok is false if no binary defines it.
func (bs Binaries) Find(name string) (meta KernelMeta, binaryID string, ok bool) {
	for i := range bs {
		ks := bs[i].Kernels
		for j := range ks {
			if ks[j].Name == name {
				return ks[j], bs[i].ID, true
			}
		}
	}
	return KernelMeta{}, "", false
}

// FindKernel returns the metadata for a kernel name within a binary.
func (fb *FatBinary) FindKernel(name string) (KernelMeta, error) {
	for _, k := range fb.Kernels {
		if k.Name == name {
			return k, nil
		}
	}
	return KernelMeta{}, fmt.Errorf("fat binary %q: kernel %q not registered: %w", fb.ID, name, ErrNotRegistered)
}
