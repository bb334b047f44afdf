package gpu

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/sim"
)

// Extra fixed costs of device memory management calls (model time).
const (
	// MallocTime models cudaMalloc's synchronous round trip.
	MallocTime = 100 * time.Microsecond
	// FreeTime models cudaFree's synchronous round trip.
	FreeTime = 50 * time.Microsecond
)

// Device is one simulated GPU. All methods are safe for concurrent use:
// memory-map state is guarded by a mutex, while kernel execution and DMA
// transfers serialise on the execution and copy engines respectively —
// concurrent callers queue exactly as concurrent CUDA contexts queue on
// real hardware.
type Device struct {
	id    int
	spec  Spec
	clock *sim.Clock

	mu    sync.Mutex
	alloc *allocator
	// bufs backs allocations that have carried real data, keyed by
	// allocation base. Synthetic (timing-only) traffic never
	// materialises backing, which keeps multi-gigabyte modeled
	// workloads cheap in host RAM.
	bufs map[api.DevPtr][]byte

	// The execution engine and the two copy engines are independent
	// mutexes, mirroring dual-copy-engine GPUs: an h2d transfer, a d2h
	// transfer and a kernel can all be in flight at once, so modeled
	// transfer time submitted on another context's behalf (a co-tenant's
	// flush, an inter-application swap-out) overlaps the modeled
	// execution of the current kernel instead of queueing behind it.
	execMu sync.Mutex // the execution engine: one kernel at a time
	h2dMu  sync.Mutex // host→device copy engine: one DMA transfer at a time
	d2hMu  sync.Mutex // device→host copy engine: one DMA transfer at a time

	failed  atomic.Bool
	removed atomic.Bool

	// Fault-plane hooks; nil (the common case) means no plan targets
	// this device and each site pays exactly one nil check.
	execHook   *faultinject.Hook
	dmaHook    *faultinject.Hook
	mallocHook *faultinject.Hook

	launches atomic.Int64
	h2dBytes atomic.Int64
	d2hBytes atomic.Int64
	h2dOps   atomic.Int64
	d2hOps   atomic.Int64
	busy     atomic.Int64 // model ns the execution engine was held
}

// Stats is a snapshot of a device's activity counters.
type Stats struct {
	Launches int64
	H2DBytes int64
	D2HBytes int64
	// H2DOps and D2HOps count individual DMA transfers; bulk transfer
	// coalescing shows up as fewer H2DOps for the same H2DBytes.
	H2DOps int64
	D2HOps int64
	// Busy is the cumulative model time the execution engine was
	// occupied by kernels.
	Busy time.Duration
}

// NewDevice creates a device with the given ordinal and specification.
// Each device owns a disjoint slice of the global address space so
// device pointers from different GPUs can never be confused.
func NewDevice(id int, spec Spec, clock *sim.Clock) *Device {
	base := uint64(id+1) << 40
	return &Device{
		id:    id,
		spec:  spec,
		clock: clock,
		alloc: newAllocator(base, spec.MemBytes),
		bufs:  make(map[api.DevPtr][]byte),
	}
}

// ID returns the device ordinal.
func (d *Device) ID() int { return d.id }

// Spec returns the device specification.
func (d *Device) Spec() Spec { return d.spec }

// String implements fmt.Stringer.
func (d *Device) String() string { return fmt.Sprintf("GPU%d(%s)", d.id, d.spec.Name) }

// Capacity returns the device memory size.
func (d *Device) Capacity() uint64 { return d.spec.MemBytes }

// Available returns the total free device memory.
func (d *Device) Available() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alloc.available()
}

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats {
	return Stats{
		Launches: d.launches.Load(),
		H2DBytes: d.h2dBytes.Load(),
		D2HBytes: d.d2hBytes.Load(),
		H2DOps:   d.h2dOps.Load(),
		D2HOps:   d.d2hOps.Load(),
		Busy:     time.Duration(d.busy.Load()),
	}
}

// Fail marks the device failed: every subsequent operation returns
// ErrDeviceUnavailable until Restore.
func (d *Device) Fail() { d.failed.Store(true) }

// Restore clears the failed state.
func (d *Device) Restore() { d.failed.Store(false) }

// Failed reports whether the device is failed.
func (d *Device) Failed() bool { return d.failed.Load() }

// MarkRemoved flags the device as administratively removed (dynamic
// downgrade); operations fail as on a failed device but the distinction
// is preserved for metrics.
func (d *Device) MarkRemoved() { d.removed.Store(true) }

// Removed reports whether the device was administratively removed.
func (d *Device) Removed() bool { return d.removed.Load() }

// ClearRemoved undoes an administrative removal (control-plane
// readmission): the device becomes usable again once any failed state
// is also cleared with Restore.
func (d *Device) ClearRemoved() { d.removed.Store(false) }

// InstallFaults arms the device's injection sites against plane. Call it
// before the device starts serving (NewDevice has no plane parameter so
// un-faulted construction sites stay untouched). Hooks stay nil when the
// plane has no rule matching this device — or when plane itself is nil —
// so each site pays exactly one nil check.
func (d *Device) InstallFaults(p *faultinject.Plane) {
	label := fmt.Sprintf("gpu%d", d.id)
	d.execHook = p.Hook(faultinject.PointDeviceExec, label)
	d.dmaHook = p.Hook(faultinject.PointDeviceDMA, label)
	d.mallocHook = p.Hook(faultinject.PointDeviceMalloc, label)
}

// applyFault enacts a hook decision: sticky device failure first (so the
// error the caller sees matches the device state), then a model-time
// stall, then the decision's error. Payload corruption is enacted by the
// DMA sites themselves.
func (d *Device) applyFault(dec faultinject.Decision) error {
	if dec.FailDevice {
		d.failed.Store(true)
	}
	if dec.Delay > 0 {
		d.clock.Sleep(dec.Delay)
	}
	return dec.Err
}

// usable returns ErrDeviceUnavailable when the device cannot serve.
func (d *Device) usable() error {
	if d.failed.Load() || d.removed.Load() {
		return api.ErrDeviceUnavailable
	}
	return nil
}

// Malloc reserves n bytes of device memory. It fails with
// ErrMemoryAllocation when no single free block can satisfy the request,
// exactly like cudaMalloc under fragmentation.
func (d *Device) Malloc(n uint64) (api.DevPtr, error) {
	if err := d.usable(); err != nil {
		return 0, err
	}
	if h := d.mallocHook; h != nil {
		if err := d.applyFault(h.Check()); err != nil {
			return 0, err
		}
	}
	d.clock.Sleep(MallocTime)
	d.mu.Lock()
	addr, ok := d.alloc.alloc(n)
	d.mu.Unlock()
	if !ok {
		return 0, api.ErrMemoryAllocation
	}
	return api.DevPtr(addr), nil
}

// Free releases an allocation made by Malloc. Freeing an address that is
// not an allocation base returns ErrInvalidDevicePointer.
func (d *Device) Free(p api.DevPtr) error {
	if err := d.usable(); err != nil {
		return err
	}
	d.clock.Sleep(FreeTime)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.alloc.freeBlock(uint64(p)); err != nil {
		return api.ErrInvalidDevicePointer
	}
	delete(d.bufs, p)
	return nil
}

// inRange reports whether [off, off+size) lies within limit bytes. off
// and size come from the caller, so their sum is never formed: it can
// wrap.
func inRange(off, size, limit uint64) bool { return size <= limit && off <= limit-size }

// resolve maps ptr to (allocation base, offset, allocation size).
func (d *Device) resolve(ptr api.DevPtr) (base api.DevPtr, off, size uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, o, ok := d.alloc.resolve(uint64(ptr))
	if !ok {
		return 0, 0, 0, api.ErrInvalidDevicePointer
	}
	n, _ := d.alloc.sizeOf(b)
	return api.DevPtr(b), o, n, nil
}

// dmaTime returns the model duration of moving n bytes over the copy
// engine.
func (d *Device) dmaTime(n uint64) time.Duration {
	bw := d.spec.BandwidthBps
	if bw == 0 {
		bw = 6 << 30
	}
	return MemcpyOverhead + time.Duration(float64(n)/float64(bw)*float64(time.Second))
}

// CopyIn transfers size bytes from host to dst: a one-item CopyInBatch.
// When data is non-nil it carries the real bytes and the allocation's
// backing store is updated; when data is nil the transfer is
// timing-and-accounting only.
func (d *Device) CopyIn(dst api.DevPtr, data []byte, size uint64) error {
	return d.CopyInBatch([]api.HDCopy{{Dst: dst, Data: data, Size: size}})
}

// hdSize is a host→device transfer's length: its real bytes', when it
// carries them.
func hdSize(it *api.HDCopy) uint64 {
	if it.Data != nil {
		return uint64(len(it.Data))
	}
	return it.Size
}

// admit validates a submission of n transfers before the engine is
// touched: each consults the DMA fault hook, then must lie inside one
// allocation. It returns how long the submission holds the engine — the
// sum of the items' modeled times — and the items the fault plane
// corrupts.
func (d *Device) admit(n int, item func(i int) (api.DevPtr, uint64)) (total time.Duration, corrupt []int, err error) {
	for i := 0; i < n; i++ {
		if h := d.dmaHook; h != nil {
			dec := h.Check()
			if dec.Corrupt {
				corrupt = append(corrupt, i)
			}
			if err := d.applyFault(dec); err != nil {
				return 0, nil, err
			}
		}
		ptr, size := item(i)
		_, off, alloc, err := d.resolve(ptr)
		if err != nil {
			return 0, nil, err
		}
		if !inRange(off, size, alloc) {
			return 0, nil, api.ErrInvalidValue
		}
		total += d.dmaTime(size)
	}
	return total, corrupt, nil
}

// CopyInBatch is the host→device copy engine: the items land as one
// submission, which holds the engine once for the sum of the items'
// modeled times and accounts bytes and ops per item, so a batch costs
// the model exactly what its items would cost one by one. Every item is
// admitted before the engine is touched, so a batch fails as a whole
// without landing any data. An item's Data, when non-nil, carries its
// real bytes (and its length overrides Size); a nil Data is a
// timing-and-accounting-only transfer.
func (d *Device) CopyInBatch(items []api.HDCopy) error {
	if err := d.usable(); err != nil {
		return err
	}
	total, corrupt, err := d.admit(len(items), func(i int) (api.DevPtr, uint64) {
		return items[i].Dst, hdSize(&items[i])
	})
	if err != nil {
		return err
	}
	d.h2dMu.Lock()
	d.clock.Sleep(total)
	d.h2dMu.Unlock()
	if err := d.usable(); err != nil {
		return err
	}
	for i := range items {
		it := &items[i]
		d.h2dBytes.Add(int64(hdSize(it)))
		d.h2dOps.Add(1)
		if it.Data == nil {
			continue
		}
		d.mu.Lock()
		// Resolved again, not carried across the sleep: an allocation
		// freed while the copy was in flight takes no data.
		if base, off, ok := d.alloc.resolve(uint64(it.Dst)); ok {
			alloc, _ := d.alloc.sizeOf(base)
			buf := d.backing(api.DevPtr(base), alloc)
			copy(buf[off:], it.Data)
			if slices.Contains(corrupt, i) && len(it.Data) > 0 {
				// ECC-style corruption: one flipped byte in the landed data.
				buf[off] ^= 0xFF
			}
		}
		d.mu.Unlock()
	}
	return nil
}

// CopyOut transfers size bytes from src to the host: a one-item
// CopyOutBatch. The returned slice is nil when the allocation has no
// real backing (synthetic traffic); timing and accounting are identical
// either way.
func (d *Device) CopyOut(src api.DevPtr, size uint64) ([]byte, error) {
	datas, err := d.CopyOutBatch([]api.DHCopy{{Src: src, Size: size}})
	if datas == nil {
		return nil, err
	}
	return datas[0], nil
}

// CopyOutBatch is the device→host copy engine, the mirror of
// CopyInBatch: one engine hold for the sum of the items' modeled times,
// per-item accounting, and a batch admitted, so failing, as a whole. The
// returned slice is parallel to items with nil entries for allocations
// that have no real backing, and nil altogether when none has
// (synthetic traffic allocates nothing).
func (d *Device) CopyOutBatch(items []api.DHCopy) ([][]byte, error) {
	if err := d.usable(); err != nil {
		return nil, err
	}
	total, corrupt, err := d.admit(len(items), func(i int) (api.DevPtr, uint64) {
		return items[i].Src, items[i].Size
	})
	if err != nil {
		return nil, err
	}
	d.d2hMu.Lock()
	d.clock.Sleep(total)
	d.d2hMu.Unlock()
	if err := d.usable(); err != nil {
		return nil, err
	}
	var out [][]byte
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range items {
		it := &items[i]
		d.d2hBytes.Add(int64(it.Size))
		d.d2hOps.Add(1)
		base, off, ok := d.alloc.resolve(uint64(it.Src))
		buf, real := d.bufs[api.DevPtr(base)]
		if !ok || !real {
			continue
		}
		data := make([]byte, it.Size)
		copy(data, buf[off:])
		if slices.Contains(corrupt, i) && it.Size > 0 {
			data[0] ^= 0xFF
		}
		if out == nil {
			out = make([][]byte, len(items))
		}
		out[i] = data
	}
	return out, nil
}

// CopyDD transfers size bytes between two device allocations.
func (d *Device) CopyDD(dst, src api.DevPtr, size uint64) error {
	if err := d.usable(); err != nil {
		return err
	}
	db, doff, dalloc, err := d.resolve(dst)
	if err != nil {
		return err
	}
	sb, soff, salloc, err := d.resolve(src)
	if err != nil {
		return err
	}
	if !inRange(doff, size, dalloc) || !inRange(soff, size, salloc) {
		return api.ErrInvalidValue
	}
	// On-device copies ride the h2d engine (one engine is enough for a
	// same-device blit; picking one side keeps the lock order trivial).
	d.h2dMu.Lock()
	// On-device copies are roughly an order of magnitude faster than
	// PCIe transfers.
	d.clock.Sleep(d.dmaTime(size / 10))
	d.h2dMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if sbuf, ok := d.bufs[sb]; ok {
		dbuf := d.backing(db, dalloc)
		copy(dbuf[doff:doff+size], sbuf[soff:])
	}
	return nil
}

// backing returns (materialising if needed) the byte store for the
// allocation based at base. Caller holds d.mu.
func (d *Device) backing(base api.DevPtr, size uint64) []byte {
	buf, ok := d.bufs[base]
	if !ok {
		buf = make([]byte, size)
		d.bufs[base] = buf
	}
	return buf
}

// Bytes exposes the backing bytes of the allocation containing ptr,
// starting at ptr, materialising the store on first use. It is how
// kernel implementations see "device memory".
func (d *Device) Bytes(ptr api.DevPtr) ([]byte, error) {
	base, off, size, err := d.resolve(ptr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.backing(base, size)[off:], nil
}

// Exec occupies the execution engine for repeat back-to-back runs of a
// kernel whose reference-device duration is base, then applies fn (the
// kernel's host-side data transformation) once per run if non-nil.
// The per-launch overhead is charged for every run.
func (d *Device) Exec(base time.Duration, repeat int, fn func() error) error {
	if err := d.usable(); err != nil {
		return err
	}
	if h := d.execHook; h != nil {
		if err := d.applyFault(h.Check()); err != nil {
			return err
		}
	}
	if repeat < 1 {
		repeat = 1
	}
	speed := d.spec.Speed
	if speed <= 0 {
		speed = 1
	}
	per := LaunchOverhead + time.Duration(float64(base)/speed)
	total := per * time.Duration(repeat)

	d.execMu.Lock()
	d.clock.Sleep(total)
	d.busy.Add(int64(total))
	d.launches.Add(int64(repeat))
	d.execMu.Unlock()

	if err := d.usable(); err != nil {
		// The device died while the kernel was in flight.
		return err
	}
	if fn != nil {
		for i := 0; i < repeat; i++ {
			if err := fn(); err != nil {
				return fmt.Errorf("kernel execution: %w", api.ErrLaunchFailure)
			}
		}
	}
	return nil
}
