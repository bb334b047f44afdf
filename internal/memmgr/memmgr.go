// Package memmgr implements the paper's central contribution: a virtual
// memory abstraction for GPUs (§4.5).
//
// Applications never see device addresses. Every allocation returns a
// virtual pointer backed by a page-table entry (PTE) holding the three
// pointers of the paper's design — virtual, swap, device — plus the
// isAllocated / toCopy2Dev / toCopy2Swap flags whose transitions follow
// Figure 4 exactly. Data lives in the host-side swap area and moves to
// the device on demand, which is what makes application→GPU binding
// dynamic: a context can be unbound (fully swapped out) at any CPU
// phase and later re-bound to any device.
//
// The manager implements the per-call actions and error returns of
// Table 1, the two swap flavours (§4.5 intra-application and
// inter-application swap are orchestrated above this package, using
// SwapOutEntries/SwapOutAllIn), nested-structure registration with
// device-pointer patching, transfer deferral with bulk coalescing, and
// the implicit checkpoint capability of §4.6.
//
// Locking: a shard's lock guards only its map from context ID to Space.
// Everything else in a Space — the page table, the cursor, the PTEs and
// the swap-path scratch — is read and written only by the holder of the
// context's service lock (the runtime guarantees it: a context's own
// dispatcher holds it while serving a call, and inter-application swap
// or migration acquire it via TryLock before touching a victim's
// entries), so flag transitions never race. The one exception is the
// context's footprint, an atomic anyone may read (Space.Usage).
package memmgr

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/trace"
)

// Kind distinguishes the allocation flavours of the CUDA API (the
// page-table entry's "type" attribute in §4.5).
type Kind int

// Allocation kinds.
const (
	// KindLinear is a cudaMalloc linear allocation.
	KindLinear Kind = iota
	// KindArray is a cudaMallocArray allocation.
	KindArray
	// KindPitched is a cudaMallocPitch allocation.
	KindPitched
)

// Nested describes a registered nested data structure (§1, §4.5): the
// parent allocation embeds, at Offsets[i], the device address of
// Members[i]. The manager keeps those embedded pointers consistent:
// virtual in the swap copy, physical in the device copy.
type Nested struct {
	Members []api.DevPtr
	Offsets []uint64
}

// PTE is a page-table entry: one per allocation, created on a memory
// allocation operation (§4.5).
type PTE struct {
	// Virtual is the pointer the application sees.
	Virtual api.DevPtr
	// Device is the real device pointer while IsAllocated.
	Device api.DevPtr
	// Size is the allocation length in bytes.
	Size uint64
	// IsAllocated reports whether the entry currently has device memory.
	IsAllocated bool
	// ToCopy2Dev reports that the authoritative data is only in the
	// swap area and must move to the device before the next kernel.
	ToCopy2Dev bool
	// ToCopy2Swap reports that the authoritative data is only on the
	// device (a kernel may have written it) and must be copied back
	// before the device copy is dropped.
	ToCopy2Swap bool
	// Kind is the allocation flavour.
	Kind Kind
	// Nested is non-nil for registered nested structures.
	Nested *Nested
	// LostDirty records that device-only data was lost to a device
	// failure; the runtime clears it by replaying kernels (§4.6).
	LostDirty bool

	// owner is the per-context state the entry belongs to.
	owner *Space
	// data is the swap-area backing. It is materialised lazily and only
	// for entries that carry real bytes; synthetic (timing-only)
	// workloads keep it nil however large Size is.
	data []byte
	// writesSinceResident counts deferred host writes folded into the
	// next bulk host→device transfer (the §4.5 coalescing benefit).
	writesSinceResident int
}

// CtxID returns the owning context's identifier.
func (p *PTE) CtxID() int64 { return p.owner.id }

// HasData reports whether the entry carries real bytes in swap.
func (p *PTE) HasData() bool { return p.data != nil }

// DeviceOps is the slice of a bound virtual GPU's CUDA context that the
// manager drives: real allocation and de-allocation on the physical
// device, and vectored transfers — each call is one copy-engine
// submission. MemcpyDHBatch's result is parallel to items, nil for an
// item without real bytes and nil altogether when none has. Free and
// the transfers return the model time the device charged for them,
// which is what the manager's duration histograms observe.
type DeviceOps interface {
	Malloc(size uint64) (api.DevPtr, error)
	Free(p api.DevPtr) (time.Duration, error)
	MemcpyHDBatch(items []api.HDCopy) (time.Duration, error)
	MemcpyDHBatch(items []api.DHCopy) ([][]byte, time.Duration, error)
}

// numShards is the stripe count of the manager's page-table state.
// Contexts hash to shards by ID, so two applications' allocation
// traffic only contends when they land on the same stripe; IDs are
// issued in sequence, so any 32 consecutive admissions stay apart.
const numShards = 32

// shard is one stripe of per-context state, keyed by context ID and
// guarded by the stripe's own mutex; host-swap-area occupancy is global
// and lives in the Manager as an atomic. Each shard has its own cache line.
type shard struct {
	mu   sync.Mutex
	ctxs map[int64]*Space
	_    [48]byte
}

// Space is everything the manager keeps for one context, and the handle
// its service-lock holder reaches the page table through (SetLane
// returns it). All of it but usage belongs to that holder (package
// comment). The descriptor scratch is cleared of swap images before it
// is parked, so it never pins one. A Space kept past ReleaseContext is
// empty.
type Space struct {
	id    int64
	lane  int           // the runtime lane its instruments are written on (SetLane)
	table []*PTE        // sorted by Virtual
	next  uint64        // allocation cursor
	usage atomic.Uint64 // the MemUsage map of §4.5 (Usage)

	hd []api.HDCopy // toDevice's descriptors
	dh []api.DHCopy // syncToSwap's descriptors
	// The first descriptors live inline, so the common small submissions
	// never grow the scratch: the flush of the one buffer a host
	// rewrote, the checkpoint of the input and output a kernel dirtied.
	hdInline [1]api.HDCopy
	dhInline [2]api.DHCopy
}

func newSpace(id int64) *Space {
	cs := &Space{id: id}
	cs.hd, cs.dh = cs.hdInline[:0], cs.dhInline[:0]
	return cs
}

// Usage reports the context's total allocation footprint (the MemUsage
// map of §4.5): the one reading of a Space that needs no lock.
func (sp *Space) Usage() uint64 { return sp.usage.Load() }

// entries returns the Space's page table, nil for a nil Space.
func (sp *Space) entries() []*PTE {
	if sp == nil {
		return nil
	}
	return sp.table
}

// Manager is the runtime's memory manager. One instance serves all
// contexts and all devices of a node.
//
// The map from context ID to Space is sharded (DESIGN.md §11) into
// numShards stripes selected by context ID, so finding or creating one
// context's Space never serialises independent tenants.
// The only cross-shard quantity — swap-area occupancy versus the host
// limit — is an atomic with a reserve/release protocol.
type Manager struct {
	// DeferTransfers selects the transfer-deferral configuration
	// (§4.5): when true (the evaluation's setting), host→device data
	// movement happens lazily at kernel launch; when false, writes go
	// through to the device immediately while it is resident, trading
	// swap overhead for computation/communication overlap.
	DeferTransfers bool

	hostLimit uint64
	hostUsed  atomic.Uint64
	shards    [numShards]shard

	// Fault-plane hooks for the swap area; nil when no plan targets it.
	// Faults fire before any state is mutated, so an injected failure
	// leaves the entry in a legal Figure 4 state.
	swapWriteHook *faultinject.Hook
	swapAllocHook *faultinject.Hook

	// obs shadows every durable-state mutation (see Observer); nil when
	// no journal is attached.
	obs Observer

	// tracer records swap/transfer spans and feeds the runtime's
	// histograms; nil records nothing. The histograms observe the model
	// time the device charged, so only spans read the tracer's clock.
	tracer *trace.Tracer

	swapOps         trace.Counter // on the context's lane, as are the other Counters
	swapBytes       trace.Counter
	coalesced       atomic.Int64
	badOps          atomic.Int64
	checkpoint      trace.Counter
	checkpointBytes trace.Counter
}

// virtTag marks virtual addresses so they can never be mistaken for
// device addresses (devices live below 1<<48).
const virtTag = uint64(1) << 63

// ctxShift positions the context ID inside a virtual address, leaving
// 40 bits (1 TiB) of per-context offset space.
const ctxShift = 40

// maxEntry bounds one context's allocations: an entry must end by
// maxEntry, so its cursor, which advances by the size rounded up to 256
// bytes, stays below 1<<ctxShift; past it, the context's pointers would
// carry another context's ID in their owner bits.
const maxEntry = 1<<ctxShift - 256

// New creates a manager whose swap area is capped at hostLimit bytes of
// modeled occupancy (0 means unlimited). The paper's node has 48 GB of
// host memory backing the swap area.
func New(deferTransfers bool, hostLimit uint64) *Manager {
	m := &Manager{
		DeferTransfers:  deferTransfers,
		hostLimit:       hostLimit,
		swapOps:         trace.NewCounter(),
		swapBytes:       trace.NewCounter(),
		checkpoint:      trace.NewCounter(),
		checkpointBytes: trace.NewCounter(),
	}
	for i := range m.shards {
		m.shards[i].ctxs = make(map[int64]*Space)
	}
	return m
}

// shardOf selects the stripe owning a context's state.
func (m *Manager) shardOf(ctxID int64) *shard {
	return &m.shards[uint64(ctxID)%numShards]
}

// reserveHost claims n bytes of swap-area occupancy against the host
// limit, returning false (and claiming nothing) when the limit would
// be exceeded. The CAS loop makes concurrent reservations from
// different shards linearise without a global lock.
func (m *Manager) reserveHost(n uint64) bool {
	if m.hostLimit == 0 {
		m.hostUsed.Add(n)
		return true
	}
	for {
		cur := m.hostUsed.Load()
		if !inRange(cur, n, m.hostLimit) {
			return false
		}
		if m.hostUsed.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// releaseHost returns n bytes of swap-area occupancy.
func (m *Manager) releaseHost(n uint64) {
	m.hostUsed.Add(^uint64(n - 1))
}

// InstallFaults arms the manager's swap-area injection sites against
// plane. Call it before the manager starts serving; a nil plane — or a
// plan with no memmgr rules — leaves the sites nil and free.
func (m *Manager) InstallFaults(p *faultinject.Plane) {
	m.swapWriteHook = p.Hook(faultinject.PointSwapWrite, "")
	m.swapAllocHook = p.Hook(faultinject.PointSwapAlloc, "")
}

// swapWriteFault consults the swap-write hook; a non-nil return aborts
// the write before any entry state changed. The manager has no clock,
// so delay decisions are ignored here.
func (m *Manager) swapWriteFault() error {
	if h := m.swapWriteHook; h != nil {
		return h.Check().Err
	}
	return nil
}

// SetTracer installs the span/histogram tracer (mirrors SetObserver).
// Call it before the manager starts serving; nil disables tracing.
func (m *Manager) SetTracer(t *trace.Tracer) { m.tracer = t }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() api.Memory {
	return api.Memory{
		SwapOps:         m.swapOps.Load(),
		SwapBytes:       m.swapBytes.Load(),
		CheckpointBytes: m.checkpointBytes.Load(),
		CoalescedWrites: m.coalesced.Load(),
		BadOpsRejected:  m.badOps.Load(),
		Checkpoints:     m.checkpoint.Load(),
		HostBytesInUse:  m.hostUsed.Load(),
	}
}

// SetLane sets the runtime lane ctxID's instruments are written on and
// returns the context's Space, creating it: the handle through which
// the holder of the context's service lock reaches its page table.
func (m *Manager) SetLane(ctxID int64, lane int) *Space {
	sp := m.state(ctxID)
	sp.lane = lane
	return sp
}

// state returns ctxID's Space, creating it.
func (m *Manager) state(ctxID int64) *Space {
	s := m.shardOf(ctxID)
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.ctxs[ctxID]
	if sp == nil {
		sp = newSpace(ctxID)
		s.ctxs[ctxID] = sp
	}
	return sp
}

// space returns ctxID's Space, nil when it has none.
func (m *Manager) space(ctxID int64) *Space {
	s := m.shardOf(ctxID)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctxs[ctxID]
}

// Malloc services an allocation call (Table 1, malloc row): it creates
// the page-table entry and reserves swap space, touching no device. The
// returned pointer is virtual. The caller holds ctxID's service lock.
func (m *Manager) Malloc(ctxID int64, size uint64, kind Kind) (api.DevPtr, error) {
	if size == 0 {
		m.badOps.Add(1)
		return 0, api.ErrInvalidValue
	}
	if size > maxEntry {
		return 0, api.ErrMemoryAllocation
	}
	if h := m.swapAllocHook; h != nil {
		if err := h.Check().Err; err != nil {
			return 0, err
		}
	}
	if !m.reserveHost(size) {
		return 0, api.ErrSwapAllocation
	}
	cs := m.state(ctxID)
	off := cs.next
	if !inRange(off, size, maxEntry) {
		m.releaseHost(size)
		return 0, api.ErrMemoryAllocation
	}
	// Align entries to 256 bytes like device allocations.
	cs.next = off + (size+255)&^uint64(255)
	v := api.DevPtr(virtTag | uint64(ctxID)<<ctxShift | off)
	pte := &PTE{Virtual: v, Size: size, Kind: kind, owner: cs}
	cs.table = append(cs.table, pte)
	cs.usage.Add(size)
	if m.obs != nil {
		m.obs.EntryWritten(ctxID, pte.image(), cs.next)
	}
	return v, nil
}

// ResolveIn is the one door a tenant-supplied pointer enters through
// (Table 1's "check valid PTE"): it maps ptr — possibly mid-entry, unless
// base demands the allocation's own address (free, nested parent) — to
// the entry and offset of sp's context, whose service lock the caller
// holds. The owner is in the pointer's bits, so a foreign pointer is
// refused without a look at any table, and whatever is found in sp's
// table is sp's. Every refusal is counted as a bad operation and
// reported as ErrInvalidDevicePointer without reaching a device.
func (m *Manager) ResolveIn(sp *Space, ptr api.DevPtr, base bool) (*PTE, uint64, error) {
	if sp != nil && owns(sp.id, ptr) {
		// The table is sorted by Virtual (the allocation cursor only grows
		// and Free preserves order), so the owning entry is the last one
		// starting at or below ptr.
		tbl := sp.table
		i := sort.Search(len(tbl), func(i int) bool { return tbl[i].Virtual > ptr })
		if i > 0 {
			pte := tbl[i-1]
			if off := uint64(ptr - pte.Virtual); off < pte.Size && (off == 0 || !base) {
				return pte, off, nil
			}
		}
	}
	m.badOps.Add(1)
	return nil, 0, api.ErrInvalidDevicePointer
}

// Resolve is ResolveIn on the Space of whichever context the pointer
// itself names, for callers that hold no Space (tests, benchmarks). The
// caller holds that context's service lock: the search reads its table.
func (m *Manager) Resolve(ptr api.DevPtr) (*PTE, uint64, error) {
	return m.ResolveIn(m.space(ptrCtx(ptr)), ptr, false)
}

// ptrCtx extracts the owning context's ID from a virtual pointer's bits.
func ptrCtx(ptr api.DevPtr) int64 { return int64(uint64(ptr) &^ virtTag >> ctxShift) }

// owns reports whether ptr is a virtual pointer of ctxID's.
func owns(ctxID int64, ptr api.DevPtr) bool {
	return uint64(ptr)&virtTag != 0 && ptrCtx(ptr) == ctxID
}

// inRange reports whether [off, off+size) lies within limit bytes. off
// and size are client-chosen, so their sum is never formed: it can wrap.
func inRange(off, size, limit uint64) bool { return size <= limit && off <= limit-size }

// AppendEntriesIn appends a snapshot of sp's page table to dst (a caller
// that keeps dst from call to call snapshots without allocating). The
// caller holds sp's context's service lock.
func (m *Manager) AppendEntriesIn(dst []*PTE, sp *Space) []*PTE {
	return append(dst, sp.entries()...)
}

// ResidentBytesIn reports how much of the footprint of sp's context,
// whose service lock the caller holds, currently occupies device memory.
func (m *Manager) ResidentBytesIn(sp *Space) uint64 {
	var sum uint64
	for _, pte := range sp.entries() {
		if pte.IsAllocated {
			sum += pte.Size
		}
	}
	return sum
}

// swapData returns the entry's swap backing, materialising it when the
// entry carries real bytes.
func (p *PTE) swapData() []byte {
	if p.data == nil {
		p.data = make([]byte, p.Size)
	}
	return p.data
}

// CopyHD services a host→device transfer (Table 1, copyHD row): bounds
// are checked against the entry, the bytes land in the swap area, and —
// under deferral or while the entry is off-device — the device is not
// touched; the entry moves to the "data only on host" state of Figure 4.
// Without deferral, a resident entry is written through. ops may be nil
// when the context is unbound (then writes always defer).
func (m *Manager) CopyHD(pte *PTE, off uint64, data []byte, size uint64, ops DeviceOps) error {
	if data != nil {
		size = uint64(len(data))
	}
	if !inRange(off, size, pte.Size) {
		m.badOps.Add(1)
		return api.ErrSizeMismatch
	}
	if err := m.swapWriteFault(); err != nil {
		return err
	}
	if err := m.pullDeviceCopy(pte, off, size, ops, false); err != nil {
		return err
	}
	if data != nil {
		copy(pte.swapData()[off:], data)
	}
	return m.wrote(pte, off, data, size, ops)
}

// Memset services a cudaMemset (Table 1's copyHD row semantics with a
// constant source): the fill lands in the swap area and defers to the
// device like any host write. Real bytes are materialised only when the
// entry already carries data.
func (m *Manager) Memset(pte *PTE, off uint64, value byte, size uint64, ops DeviceOps) error {
	if !inRange(off, size, pte.Size) {
		m.badOps.Add(1)
		return api.ErrInvalidValue
	}
	if err := m.swapWriteFault(); err != nil {
		return err
	}
	if err := m.pullDeviceCopy(pte, off, size, ops, false); err != nil {
		return err
	}
	if pte.data != nil || value != 0 {
		fill := pte.swapData()[off:][:size]
		for i := range fill {
			fill[i] = value
		}
	}
	var data []byte
	if m.writesThrough(pte, ops) {
		data = bytes.Repeat([]byte{value}, int(size))
	}
	return m.wrote(pte, off, data, size, ops)
}

// writesThrough reports whether a host write to the entry goes through
// to the device now: only without deferral, and only while the entry is
// resident on a bound device.
func (m *Manager) writesThrough(pte *PTE, ops DeviceOps) bool {
	return !m.DeferTransfers && pte.IsAllocated && ops != nil
}

// wrote finishes a host write of [off, off+size) that has landed in swap
// (CopyHD, Memset): the swap copy is the newer one now. It goes through
// to the device as a one-item submission when writesThrough; otherwise
// the device is not touched and the entry waits for the next launch's
// flush, in Figure 4's "data only on host" state.
func (m *Manager) wrote(pte *PTE, off uint64, data []byte, size uint64, ops DeviceOps) error {
	pte.ToCopy2Swap = false
	if m.writesThrough(pte, ops) {
		cs := pte.owner
		item := api.HDCopy{Dst: pte.Device + api.DevPtr(off), Data: data, Size: size}
		if err := m.toDevice(cs, append(cs.hd[:0], item), ops); err != nil {
			return err
		}
		pte.ToCopy2Dev = false
	} else {
		pte.ToCopy2Dev = true
		pte.writesSinceResident++
	}
	m.noteWrite(pte)
	return nil
}

// CopyDH services a device→host transfer (Table 1, copyDH row): when
// the authoritative copy is on the device it is pulled into swap first;
// the returned bytes come from the swap area (nil for synthetic
// entries). The entry ends in the "host and device in sync" state.
func (m *Manager) CopyDH(pte *PTE, off, size uint64, ops DeviceOps) ([]byte, error) {
	if !inRange(off, size, pte.Size) {
		m.badOps.Add(1)
		return nil, api.ErrInvalidValue
	}
	if err := m.pullDeviceCopy(pte, off, size, ops, true); err != nil {
		return nil, err
	}
	if pte.data == nil {
		return nil, nil
	}
	out := make([]byte, size)
	copy(out, pte.data[off:])
	return out, nil
}

// pullDeviceCopy ensures the swap copy reflects device-newer data
// before a host-side access touches it (the former three near-identical
// guards of CopyHD/Memset/CopyDH). Reads always need the pull; a write
// needs it only when partial — a full-extent overwrite replaces the
// whole image anyway, and syncing first would clobber nothing but cost
// a transfer.
func (m *Manager) pullDeviceCopy(pte *PTE, off, size uint64, ops DeviceOps, read bool) error {
	if !pte.ToCopy2Swap {
		return nil
	}
	if !read && off == 0 && size == pte.Size {
		return nil
	}
	if ops == nil {
		return api.ErrInvalidValue
	}
	_, err := m.syncToSwap([]*PTE{pte}, ops)
	return err
}

// syncToSwap is the one way bytes move device→swap (§4.5 copyDH and
// swap-out, §4.6 checkpoint): the dirty ones among entries — resident,
// device copy newer — are pulled as one submission and ToCopy2Swap is
// cleared. entries belong to one context and do not repeat. It returns
// the bytes it pulled. An injected swap-write failure (one check per
// entry) or a failed submission aborts before any entry changed: each
// stays in the legal "device copy authoritative" state, and the next
// sync retries.
func (m *Manager) syncToSwap(entries []*PTE, ops DeviceOps) (total uint64, err error) {
	if len(entries) == 0 {
		return 0, nil
	}
	cs := entries[0].owner
	items := cs.dh[:0]
	for _, pte := range entries {
		if pte.IsAllocated && pte.ToCopy2Swap {
			items = append(items, api.DHCopy{Src: pte.Device, Size: pte.Size})
			total += pte.Size
		}
	}
	cs.dh = items[:0] // no pointers to clear
	if len(items) == 0 {
		return 0, nil
	}
	for range items {
		if err := m.swapWriteFault(); err != nil {
			return 0, err
		}
	}
	t := m.tracer
	start := t.Start()
	datas, charged, err := ops.MemcpyDHBatch(items)
	if err != nil {
		return 0, err
	}
	if t != nil {
		t.Observe(t.D2H, cs.lane, int64(charged))
		if t.Spans() {
			t.Span("d2h", cs.id, start, -1, fmt.Sprintf("%d bytes in %d transfers", total, len(items)))
		}
	}
	n := 0
	for _, pte := range entries {
		if !pte.IsAllocated || !pte.ToCopy2Swap {
			continue
		}
		if datas != nil && datas[n] != nil {
			pte.data = datas[n]
			if pte.Nested != nil {
				m.patchPointers(pte, pte.data, true)
			}
		}
		pte.ToCopy2Swap = false
		m.noteWrite(pte)
		n++
	}
	return total, nil
}

// Free services a de-allocation (Table 1, free row): swap space is
// released and, if the entry is resident, the device allocation is
// freed.
func (m *Manager) Free(pte *PTE, ops DeviceOps) error {
	if pte.IsAllocated && ops != nil {
		if _, err := ops.Free(pte.Device); err != nil {
			return err
		}
	}
	pte.IsAllocated = false
	pte.Device = 0
	cs := pte.owner
	i := slices.Index(cs.table, pte)
	if i < 0 {
		m.badOps.Add(1)
		return api.ErrInvalidDevicePointer
	}
	cs.table = slices.Delete(cs.table, i, i+1)
	cs.usage.Add(-pte.Size)
	m.releaseHost(pte.Size)
	if m.obs != nil {
		m.obs.EntryFreed(pte.CtxID(), pte.Virtual)
	}
	return nil
}

// RegisterNested records a nested structure (§4.5 "nested" attribute):
// parent embeds the device addresses of members at the given offsets.
// Members must be entries of the same context and offsets must leave
// room for an 8-byte pointer.
func (m *Manager) RegisterNested(parent *PTE, members []api.DevPtr, offsets []uint64) error {
	if len(members) != len(offsets) {
		m.badOps.Add(1)
		return api.ErrInvalidValue
	}
	for i, off := range offsets {
		if !inRange(off, 8, parent.Size) {
			m.badOps.Add(1)
			return api.ErrInvalidValue
		}
		if _, _, err := m.ResolveIn(parent.owner, members[i], false); err != nil {
			return err
		}
	}
	parent.Nested = &Nested{
		Members: append([]api.DevPtr(nil), members...),
		Offsets: append([]uint64(nil), offsets...),
	}
	return nil
}

// patchPointers rewrites the embedded member pointers inside buf (the
// parent's swap image): toVirtual=false installs the members' current
// device addresses (device-bound image), toVirtual=true restores the
// virtual addresses (host-side image).
func (m *Manager) patchPointers(parent *PTE, buf []byte, toVirtual bool) {
	for i, member := range parent.Nested.Members {
		pte, off, err := m.ResolveIn(parent.owner, member, false)
		if err != nil {
			continue
		}
		addr := uint64(member)
		if !toVirtual {
			addr = uint64(pte.Device) + off
		}
		o := parent.Nested.Offsets[i]
		putU64(buf[o:], addr)
	}
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// MakeResident performs the launch-row actions of Table 1 for one
// entry: EnsureAllocated (the caller handles ErrMemoryAllocation by
// swapping, per §4.5), then FlushDeferred.
func (m *Manager) MakeResident(pte *PTE, ops DeviceOps) error {
	if err := m.EnsureAllocated(pte, ops); err != nil {
		return err
	}
	return m.FlushDeferred([]*PTE{pte}, ops)
}

// EnsureAllocated gives one entry, nested members first, device memory
// without moving any data, so a caller can allocate a launch's whole
// working set first — retrying per-entry allocation failures with swaps
// — and then land its deferred transfers in one submission
// (FlushDeferred).
func (m *Manager) EnsureAllocated(pte *PTE, ops DeviceOps) error {
	return m.allocate(pte, ops, 0)
}

// maxNesting bounds how deep nested structures may point; a deeper
// chain is a registration cycle.
const maxNesting = 8

func (m *Manager) allocate(pte *PTE, ops DeviceOps, depth int) error {
	if depth > maxNesting {
		return api.ErrInvalidValue
	}
	if pte.Nested != nil {
		for _, member := range pte.Nested.Members {
			mp, _, err := m.ResolveIn(pte.owner, member, false)
			if err != nil {
				return err
			}
			if err := m.allocate(mp, ops, depth+1); err != nil {
				return err
			}
		}
	}
	if !pte.IsAllocated {
		dev, err := ops.Malloc(pte.Size)
		if err != nil {
			return err
		}
		pte.Device = dev
		pte.IsAllocated = true
		// Fresh device memory never holds the entry's data.
		pte.ToCopy2Swap = false
	}
	return nil
}

// FlushDeferred lands what a launch's already-allocated entries need on
// the device as one submission (toDevice): the swap image of every entry
// with ToCopy2Dev, nested members first and a nested parent's with its
// members' device addresses patched in; and for a nested parent whose
// data is on the device already, its embedded pointer words, which
// member residency may have moved. If the submission fails the entries
// keep ToCopy2Dev: the swap copy stays authoritative, a legal Figure 4
// state, and the next launch retries the flush.
func (m *Manager) FlushDeferred(ptes []*PTE, ops DeviceOps) error {
	if len(ptes) == 0 {
		return nil
	}
	cs := ptes[0].owner
	items := cs.hd[:0]
	for _, pte := range ptes {
		items = m.gatherHD(items, pte, 0)
	}
	if err := m.toDevice(cs, items, ops); err != nil {
		return err
	}
	for _, pte := range ptes {
		m.landed(pte, 0)
	}
	return nil
}

// gatherHD appends pte's share of a flush to items, its nested members'
// first. An entry some item already lands in — an argument passed
// twice, a member two parents share — adds nothing.
func (m *Manager) gatherHD(items []api.HDCopy, pte *PTE, depth int) []api.HDCopy {
	if depth > maxNesting || !pte.ToCopy2Dev && pte.Nested == nil || lands(items, pte) {
		return items
	}
	if pte.Nested != nil {
		for _, member := range pte.Nested.Members {
			if mp, _, err := m.ResolveIn(pte.owner, member, false); err == nil {
				items = m.gatherHD(items, mp, depth+1)
			}
		}
	}
	if pte.ToCopy2Dev {
		return append(items, api.HDCopy{Dst: pte.Device, Data: m.deviceImage(pte), Size: pte.Size})
	}
	if pte.Nested != nil && pte.data != nil {
		img := m.deviceImage(pte)
		for _, o := range pte.Nested.Offsets {
			items = append(items, api.HDCopy{Dst: pte.Device + api.DevPtr(o), Data: img[o : o+8], Size: 8})
		}
	}
	return items
}

// lands reports whether one of items lands inside the entry's device
// allocation.
func lands(items []api.HDCopy, pte *PTE) bool {
	for _, it := range items {
		if it.Dst-pte.Device < api.DevPtr(pte.Size) {
			return true
		}
	}
	return false
}

// deviceImage returns the bytes the entry's device copy must hold: nil
// for a synthetic entry, else its swap image — a nested parent's with
// the members' device addresses installed (the swap image keeps the
// virtual ones).
func (m *Manager) deviceImage(pte *PTE) []byte {
	if pte.Nested == nil || pte.data == nil {
		return pte.data
	}
	img := bytes.Clone(pte.data)
	m.patchPointers(pte, img, false)
	return img
}

// landed clears ToCopy2Dev on pte and its nested members once their
// flush has landed, crediting the host writes it coalesced.
func (m *Manager) landed(pte *PTE, depth int) {
	if depth > maxNesting {
		return
	}
	if pte.Nested != nil {
		for _, member := range pte.Nested.Members {
			if mp, _, err := m.ResolveIn(pte.owner, member, false); err == nil {
				m.landed(mp, depth+1)
			}
		}
	}
	if pte.ToCopy2Dev {
		if pte.writesSinceResident > 1 {
			m.coalesced.Add(int64(pte.writesSinceResident - 1))
		}
		pte.writesSinceResident = 0
		pte.ToCopy2Dev = false
	}
}

// toDevice is the one way bytes move swap→device (§4.5's deferred
// copyHD, and write-through without deferral): items, built in the
// context's descriptor scratch, land as one submission, traced as one
// h2d observation of the model time it charged. The scratch is parked
// emptied of the swap images its descriptors held.
func (m *Manager) toDevice(cs *Space, items []api.HDCopy, ops DeviceOps) error {
	if len(items) == 0 {
		return nil
	}
	t := m.tracer
	start := t.Start()
	charged, err := ops.MemcpyHDBatch(items)
	if err == nil && t != nil {
		t.Observe(t.H2D, cs.lane, int64(charged))
		if t.Spans() {
			var total uint64
			for _, it := range items {
				total += it.Size
			}
			t.Span("h2d", cs.id, start, -1, fmt.Sprintf("%d bytes in %d transfers", total, len(items)))
		}
	}
	clear(items)
	cs.hd = items[:0]
	return err
}

// MarkKernelEffects applies Figure 4's post-launch transition to the
// launch's referenced entries: absent read-only information, every
// referenced entry is assumed modified, so the device copy becomes the
// authoritative one. readOnly, when non-nil, marks entries the kernel
// only reads (the finer-grained handling §4.5 mentions), which then
// stay in sync.
func (m *Manager) MarkKernelEffects(ptes []*PTE, readOnly []bool) {
	for i, pte := range ptes {
		if readOnly != nil && i < len(readOnly) && readOnly[i] {
			continue
		}
		pte.ToCopy2Swap = true
	}
}

// SwapOutAllIn swaps out every resident entry of sp's context, whose
// service lock the caller holds — the inter-application swap action
// (§4.5: "all the page table entries belonging to the application that
// accepts the request will be swapped") and the implicit checkpoint
// that precedes unbinding and migration. It returns what it swapped
// out.
func (m *Manager) SwapOutAllIn(sp *Space, ops DeviceOps) (Spilled, error) {
	return m.SwapOutEntries(sp.entries(), ops)
}

// SwapOutEntries performs the swap row of Table 1 on entries (one
// context's, non-resident ones skipped): the device-newer data of all of
// them is spilled to swap in one submission (syncToSwap), then each
// entry's device memory is freed. Afterwards they are in the "data only
// on host" state and can be made resident on any device. Besides the
// unbind path, this serves intra-application eviction, which displaces
// a launch's whole shortfall at once. It returns what it swapped out,
// as far as it got. The submission is timed and counted once: its
// duration is the model time its frees charged (the spill is the d2h
// histogram's); only swap_bytes sees each entry.
func (m *Manager) SwapOutEntries(entries []*PTE, ops DeviceOps) (s Spilled, err error) {
	spilled, err := m.syncToSwap(entries, ops)
	if err != nil || len(entries) == 0 {
		return s, err
	}
	t, cs := m.tracer, entries[0].owner
	start := t.Start()
	var charged time.Duration
	if s.Bytes = int64(spilled); spilled > 0 {
		m.swapBytes.Add(cs.lane, s.Bytes)
	}
	for _, pte := range entries {
		if !pte.IsAllocated {
			continue
		}
		// The data is safe in swap by now. A device that died before the
		// free took its memory with it: the entry is swapped out all the
		// same, and the swap image is as complete as if the free had
		// succeeded.
		freed, e := ops.Free(pte.Device)
		if e != nil && !errors.Is(e, api.ErrDeviceUnavailable) {
			err = e
			break
		}
		charged += freed
		pte.IsAllocated = false
		pte.Device = 0
		pte.ToCopy2Dev = true
		if t != nil {
			t.Observe(t.SwapBytes, cs.lane, int64(pte.Size))
		}
		s.Entries++
	}
	if s.Entries > 0 {
		m.swapOps.Add(cs.lane, int64(s.Entries))
		if t != nil {
			t.Observe(t.SwapDur, cs.lane, int64(charged))
			if t.Spans() {
				t.Span("swap-out", cs.id, start, -1, fmt.Sprintf("%d entries", s.Entries))
			}
		}
	}
	return s, err
}

// Spilled is what a swap-out moved: the entries it swapped out, and the
// device-newer bytes it spilled to swap before freeing them — the
// swap_ops and swap_bytes it counted.
type Spilled struct {
	Entries int
	Bytes   int64
}

// Checkpoint is CheckpointIn on ctxID's Space, for a caller that holds
// no Space but holds the context's service lock. It is memmgr's one ID
// twin of a Space form, kept while benchmark/ladder.go calls it.
func (m *Manager) Checkpoint(ctxID int64, ops DeviceOps) (int64, error) {
	return m.CheckpointIn(m.space(ctxID), ops)
}

// CheckpointIn flushes every device-newer entry of sp's context, whose
// service lock the caller holds, to swap in one submission, without
// releasing device memory (§4.6): afterwards the page table and swap
// area hold the full device state, so the context can be restarted on
// another GPU at the cost of replaying only not-yet-executed work. It
// returns the bytes flushed.
func (m *Manager) CheckpointIn(sp *Space, ops DeviceOps) (int64, error) {
	table := sp.entries()
	flushed, err := m.syncToSwap(table, ops)
	if err != nil {
		return 0, err
	}
	lane := 0 // an empty table's checkpoint counts on lane 0
	if len(table) > 0 {
		lane = table[0].owner.lane
	}
	m.checkpointBytes.Add(lane, int64(flushed))
	m.checkpoint.Add(lane, 1)
	return int64(flushed), nil
}

// InvalidateResidency drops every device mapping of sp's context, whose
// service lock the caller holds, without touching the (failed or
// removed) device. Entries whose authoritative copy was device-only are
// marked LostDirty; the runtime recovers them by replaying kernels since
// the last checkpoint (§4.6). It returns the number of entries that lost
// dirty data.
func (m *Manager) InvalidateResidency(sp *Space) int {
	lost := 0
	for _, pte := range sp.table {
		if !pte.IsAllocated {
			continue
		}
		if pte.ToCopy2Swap {
			pte.LostDirty = true
			lost++
		}
		pte.IsAllocated = false
		pte.Device = 0
		pte.ToCopy2Swap = false
		pte.ToCopy2Dev = true
	}
	return lost
}

// ClearLost clears the LostDirty marks of sp's context after a
// successful replay.
func (m *Manager) ClearLost(sp *Space) {
	for _, pte := range sp.table {
		pte.LostDirty = false
	}
}

// ReleaseContext drops the whole page table and swap area of a context
// (application exit), freeing any device memory it still holds. The
// caller holds the context's service lock, or no one serves the context
// (a refused import).
func (m *Manager) ReleaseContext(ctxID int64, ops DeviceOps) {
	s := m.shardOf(ctxID)
	s.mu.Lock()
	cs := s.ctxs[ctxID]
	delete(s.ctxs, ctxID)
	s.mu.Unlock()
	var entries []*PTE
	var released uint64
	if cs != nil {
		// Empty the Space as well as dropping it: entries still point at
		// it, and a late Free of one must find nothing to remove.
		entries, released = cs.table, cs.usage.Swap(0)
		cs.table = nil
	}
	if ops != nil {
		for _, pte := range entries {
			if pte.IsAllocated {
				_, _ = ops.Free(pte.Device)
			}
		}
	}
	m.releaseHost(released)
	if m.obs != nil {
		m.obs.ContextReleased(ctxID)
	}
}
