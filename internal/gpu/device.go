package gpu

import (
	"fmt"
	"math"
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
// transfers queue on the execution and copy engines respectively —
// concurrent callers queue exactly as concurrent CUDA contexts queue on
// real hardware.
type Device struct {
	id    int
	spec  Spec
	clock *sim.Clock

	// mu guards alloc, the device's table of allocations, the retired
	// flag of every Owner, and the engines' timelines.
	mu    sync.Mutex
	alloc *allocator

	// The execution engine and the two copy engines are independent
	// timelines, mirroring dual-copy-engine GPUs: an h2d transfer, a d2h
	// transfer and a kernel can all be in flight at once, so modeled
	// transfer time submitted on another context's behalf (a co-tenant's
	// flush, an inter-application swap-out) overlaps the modeled
	// execution of the current kernel instead of queueing behind it.
	// Each is the model time its engine is next free at; submissions
	// run on one engine one at a time, in the order they booked it.
	execFree time.Duration
	h2dFree  time.Duration
	d2hFree  time.Duration

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
func (d *Device) Malloc(n uint64) (api.DevPtr, error) { return d.MallocAs(nil, n, n) }

// MallocAs is Malloc on behalf of o, whose calls may then address the
// first asked of the n bytes: all of them for cudaMalloc, none for a
// CUDA context's reservation. It fails with ErrInvalidValue once o is
// retired.
func (d *Device) MallocAs(o *Owner, n, asked uint64) (api.DevPtr, error) {
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
	addr, err := d.alloc.alloc(n, asked, o)
	d.mu.Unlock()
	return api.DevPtr(addr), err
}

// Free releases an allocation made by Malloc. Freeing an address that is
// not an allocation base returns ErrInvalidDevicePointer.
func (d *Device) Free(p api.DevPtr) error {
	_, err := d.FreeAs(nil, p)
	return err
}

// FreeAs is Free on behalf of o: p must be the base of an allocation o
// may address. That is checked before the device's health, as a CUDA
// context's address space is its own: a pointer it does not own is
// invalid on a failed device too. It returns the model time it charged:
// FreeTime once the device was found usable, nothing before.
// A free the clock cannot delay is judged and done in one hold of d.mu.
func (d *Device) FreeAs(o *Owner, p api.DevPtr) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o != nil {
		if _, err := d.alloc.freeable(uint64(p), o); err != nil {
			return 0, err
		}
	}
	if err := d.usable(); err != nil {
		return 0, err
	}
	if d.clock.Delays(FreeTime) {
		d.mu.Unlock()
		d.clock.Sleep(FreeTime)
		d.mu.Lock()
	}
	return FreeTime, d.alloc.freeBlock(uint64(p), o)
}

// Release frees every allocation o owns, its reservation included, and
// retires o: a later call on its behalf fails with ErrInvalidValue and no
// allocation can land for it, so the device keeps nothing of o. It
// charges FreeTime per block, as freeing them one by one would; a failed
// device charges nothing, and the blocks go all the same.
func (d *Device) Release(o *Owner) {
	d.mu.Lock()
	n := d.alloc.release(o)
	d.mu.Unlock()
	if d.usable() == nil {
		d.clock.Sleep(time.Duration(n) * FreeTime)
	}
}

// inRange reports whether [off, off+size) lies within limit bytes. off
// and size come from the caller, so their sum is never formed: it can
// wrap.
func inRange(off, size, limit uint64) bool { return size <= limit && off <= limit-size }

// DMATime returns the model duration of moving n bytes over the copy
// engine.
func (d *Device) DMATime(n uint64) time.Duration {
	bw := d.spec.BandwidthBps
	if bw == 0 {
		bw = 6 << 30
	}
	return MemcpyOverhead + time.Duration(float64(n)/float64(bw)*float64(time.Second))
}

// occupy runs a submission of total model time on the engine whose
// timeline is *freeAt, after those booked before it: it books under mu,
// then sleeps out the wait and the submission with no lock held. A
// submission too short for the clock to delay books nothing.
func (d *Device) occupy(freeAt *time.Duration, total time.Duration) {
	if !d.clock.Delays(total) {
		return
	}
	d.mu.Lock()
	now := d.clock.Now()
	end := book(freeAt, now, total)
	d.mu.Unlock()
	d.clock.Sleep(end - now)
}

// book appends a submission of total, made at now, to an engine's
// timeline and returns the model time the engine frees after it. The
// timeline saturates at the largest Duration, as Clock.Now does.
func book(freeAt *time.Duration, now, total time.Duration) time.Duration {
	start := max(now, *freeAt)
	if *freeAt = start + total; *freeAt < start {
		*freeAt = math.MaxInt64
	}
	return *freeAt
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

// submit runs a submission of n transfers made for o on the engine whose
// timeline is *freeAt, and returns the model time it charged: its items'
// transfer times plus any stall the fault plane injected (time spent
// waiting for the engine is not part of it). Every item is admitted
// before the engine is touched, so a batch fails as a whole without
// landing any data: in one hold of d.mu an owner's pointers are checked
// first, every one of them, before the device's health and before any
// range or hook; the DMA fault hook then fires in the per-item order, up
// to the first bad item's. land moves the bytes, with d.mu held, once
// the submission has run; corrupt lists the items the fault plane
// corrupts. A submission no hook sees and the clock cannot delay is
// admitted and landed in the same hold.
func (d *Device) submit(o *Owner, freeAt *time.Duration, n int, item func(i int) (api.DevPtr, uint64), land func(corrupt []int)) (time.Duration, error) {
	var total time.Duration
	bad, badErr := n, error(nil)
	d.mu.Lock()
	err := o.live()
	for i := 0; err == nil && i < n; i++ {
		ptr, size := item(i)
		_, off, b, ok := d.alloc.resolve(uint64(ptr))
		switch {
		case o != nil && !(ok && b.addressable(o, off)):
			err = api.ErrInvalidDevicePointer
		case bad < n:
		case !ok:
			bad, badErr = i, api.ErrInvalidDevicePointer
		case !inRange(off, size, b.len):
			bad, badErr = i, api.ErrInvalidValue
		default:
			total += d.DMATime(size)
		}
	}
	if err == nil {
		err = d.usable()
	}
	if err == nil && bad == n && d.dmaHook == nil && !d.clock.Delays(total) {
		land(nil)
		d.mu.Unlock()
		return total, nil
	}
	d.mu.Unlock()
	if err != nil {
		return 0, err
	}
	var stall time.Duration
	var corrupt []int
	for i := 0; i < n && i <= bad; i++ {
		if h := d.dmaHook; h != nil {
			dec := h.Check()
			if dec.Corrupt {
				corrupt = append(corrupt, i)
			}
			if err := d.applyFault(dec); err != nil {
				return 0, err
			}
			stall += max(dec.Delay, 0)
		}
		if i == bad {
			return 0, badErr
		}
	}
	d.occupy(freeAt, total)
	if err := d.usable(); err != nil {
		return 0, err
	}
	d.mu.Lock()
	land(corrupt)
	d.mu.Unlock()
	return total + stall, nil
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
	_, err := d.CopyInAs(nil, items)
	return err
}

// CopyInAs is CopyInBatch on behalf of o: every destination must lie in
// the bytes o may address. It returns the model time the submission
// charged (submit).
func (d *Device) CopyInAs(o *Owner, items []api.HDCopy) (time.Duration, error) {
	return d.submit(o, &d.h2dFree, len(items), func(i int) (api.DevPtr, uint64) {
		return items[i].Dst, hdSize(&items[i])
	}, func(corrupt []int) {
		var moved int64
		for i := range items {
			it := &items[i]
			moved += int64(hdSize(it))
			if it.Data == nil {
				continue
			}
			// Resolved again, not carried across the engine's sleep: an
			// allocation freed while the copy was in flight takes no data.
			if base, off, b, ok := d.alloc.resolve(uint64(it.Dst)); ok && b.addressable(o, off) {
				buf := d.alloc.backing(base, b)
				copy(buf[off:], it.Data)
				if slices.Contains(corrupt, i) && len(it.Data) > 0 {
					// ECC-style corruption: one flipped byte in the landed data.
					buf[off] ^= 0xFF
				}
			}
		}
		d.h2dBytes.Add(moved)
		d.h2dOps.Add(int64(len(items)))
	})
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
	out, _, err := d.CopyOutAs(nil, items)
	return out, err
}

// CopyOutAs is CopyOutBatch on behalf of o: every source must lie in the
// bytes o may address. Like CopyInAs it returns the model time the
// submission charged.
func (d *Device) CopyOutAs(o *Owner, items []api.DHCopy) ([][]byte, time.Duration, error) {
	var out [][]byte
	charged, err := d.submit(o, &d.d2hFree, len(items), func(i int) (api.DevPtr, uint64) {
		return items[i].Src, items[i].Size
	}, func(corrupt []int) {
		var moved int64
		for i := range items {
			it := &items[i]
			moved += int64(it.Size)
			_, off, b, ok := d.alloc.resolve(uint64(it.Src))
			if !ok || b.buf == nil || !b.addressable(o, off) {
				continue
			}
			data := make([]byte, it.Size)
			copy(data, b.buf[off:])
			if slices.Contains(corrupt, i) && it.Size > 0 {
				data[0] ^= 0xFF
			}
			if out == nil {
				out = make([][]byte, len(items))
			}
			out[i] = data
		}
		d.d2hBytes.Add(moved)
		d.d2hOps.Add(int64(len(items)))
	})
	return out, charged, err
}

// Bytes exposes the backing bytes of the allocation containing ptr,
// starting at ptr, materialising the store on first use. It is how
// kernel implementations see "device memory".
func (d *Device) Bytes(ptr api.DevPtr) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	base, off, b, ok := d.alloc.resolve(uint64(ptr))
	if !ok {
		return nil, api.ErrInvalidDevicePointer
	}
	return d.alloc.backing(base, b)[off:], nil
}

// Exec occupies the execution engine for repeat back-to-back runs of a
// kernel whose reference-device duration is base, then applies fn (the
// kernel's host-side data transformation) once per run if non-nil.
// The per-launch overhead is charged for every run.
func (d *Device) Exec(base time.Duration, repeat int, fn func() error) error {
	return d.ExecAs(nil, nil, base, repeat, fn)
}

// ExecAs is Exec on behalf of o, whose kernel takes the pointer
// arguments ptrs: each must lie in the bytes o may address. Like FreeAs
// it judges them before the device's health.
func (d *Device) ExecAs(o *Owner, ptrs []api.DevPtr, base time.Duration, repeat int, fn func() error) error {
	if o != nil {
		d.mu.Lock()
		err := o.live()
		for i := 0; err == nil && i < len(ptrs); i++ {
			if _, off, b, ok := d.alloc.resolve(uint64(ptrs[i])); !ok || !b.addressable(o, off) {
				err = api.ErrInvalidDevicePointer
			}
		}
		d.mu.Unlock()
		if err != nil {
			return err
		}
	}
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

	d.occupy(&d.execFree, total)
	d.busy.Add(int64(total))
	d.launches.Add(int64(repeat))

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
