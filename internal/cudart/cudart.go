// Package cudart simulates the CUDA 3.2 driver + runtime library that
// the paper's runtime is built on and compared against.
//
// It reproduces the baseline behaviours the evaluation depends on:
//
//   - one CUDA context per application thread, created on a specific
//     device (cudaSetDevice), with an initial device-memory reservation
//     per context;
//   - a hard limit of eight concurrent contexts per device, matching the
//     paper's empirical observation on a Tesla C2050 (§1);
//   - instability when more than eight concurrent client *processes*
//     use the runtime directly (§5.3.2: "the CUDA runtime does not
//     currently support more than eight concurrent jobs stably") —
//     modeled as an attach limit that the gvrt runtime, being a single
//     process with few persistent contexts, never trips;
//   - first-come-first-served service of device operations: kernels from
//     different contexts time-share the execution engine;
//   - allocation failure when the aggregate memory requirements of
//     co-resident contexts exceed device capacity.
package cudart

import (
	"sync"
	"sync/atomic"

	"gvrt/internal/api"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// Defaults for the observed CUDA 3.2 limits (see package comment).
const (
	// DefaultContextReservation is the device memory each context
	// reserves at creation.
	DefaultContextReservation = 64 << 20
	// DefaultMaxContextsPerDevice is the observed per-device limit on
	// concurrent contexts.
	DefaultMaxContextsPerDevice = 8
	// DefaultMaxProcesses is the observed node-wide limit on concurrent
	// client processes using the bare runtime stably.
	DefaultMaxProcesses = 8
)

// Runtime is one node's CUDA driver + runtime instance.
type Runtime struct {
	clock *sim.Clock

	// Limits are fixed at construction; see the Default* constants.
	contextReservation   atomic.Uint64 // read by every launch's fit check
	maxContextsPerDevice int
	maxProcesses         int

	mu        sync.Mutex
	devices   []*gpu.Device
	ctxPerDev map[int]int
	processes int
}

// New creates a runtime managing the given devices with default limits.
func New(clock *sim.Clock, devices ...*gpu.Device) *Runtime {
	rt := &Runtime{
		clock:                clock,
		maxContextsPerDevice: DefaultMaxContextsPerDevice,
		maxProcesses:         DefaultMaxProcesses,
		devices:              append([]*gpu.Device(nil), devices...),
		ctxPerDev:            make(map[int]int),
	}
	rt.contextReservation.Store(DefaultContextReservation)
	return rt
}

// Clock returns the model clock the runtime runs on.
func (rt *Runtime) Clock() *sim.Clock { return rt.clock }

// SetLimits overrides the modeled CUDA limits; zero values keep the
// current settings. Intended for tests and experiments that scale the
// hardware model down.
func (rt *Runtime) SetLimits(contextReservation uint64, maxContextsPerDevice, maxProcesses int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if contextReservation > 0 {
		rt.contextReservation.Store(contextReservation)
	}
	if maxContextsPerDevice > 0 {
		rt.maxContextsPerDevice = maxContextsPerDevice
	}
	if maxProcesses > 0 {
		rt.maxProcesses = maxProcesses
	}
}

// ContextReservation reports the device memory each context reserves.
func (rt *Runtime) ContextReservation() uint64 { return rt.contextReservation.Load() }

// DeviceCount mirrors cudaGetDeviceCount.
func (rt *Runtime) DeviceCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.devices)
}

// Device returns the device with ordinal i, or nil if out of range.
func (rt *Runtime) Device(i int) *gpu.Device {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if i < 0 || i >= len(rt.devices) {
		return nil
	}
	return rt.devices[i]
}

// Devices returns a snapshot of the device list.
func (rt *Runtime) Devices() []*gpu.Device {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*gpu.Device(nil), rt.devices...)
}

// AddDevice hot-adds a device (dynamic upgrade) and returns its ordinal.
func (rt *Runtime) AddDevice(d *gpu.Device) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.devices = append(rt.devices, d)
	return len(rt.devices) - 1
}

// Process is an attached bare-runtime client process.
type Process struct {
	rt   *Runtime
	once sync.Once
}

// AttachProcess registers a client process with the bare runtime. Above
// the stability limit it fails with ErrRuntimeUnstable, reproducing the
// paper's observation that more than eight concurrent CUDA jobs cannot
// be handled stably.
func (rt *Runtime) AttachProcess() (*Process, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.processes >= rt.maxProcesses {
		return nil, api.ErrRuntimeUnstable
	}
	rt.processes++
	return &Process{rt: rt}, nil
}

// Detach releases the process slot. Safe to call more than once.
func (p *Process) Detach() {
	p.once.Do(func() {
		p.rt.mu.Lock()
		defer p.rt.mu.Unlock()
		p.rt.processes--
	})
}

// AttachedProcesses reports the current number of attached processes.
func (rt *Runtime) AttachedProcesses() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.processes
}

// CreateContext spawns a CUDA context on device dev, reserving the
// initial allocation. It fails with ErrInvalidDevice for a bad ordinal,
// ErrTooManyContexts past the per-device limit, and ErrMemoryAllocation
// when the reservation cannot be carved out of device memory — the
// failure mode that caps how many applications can share a GPU under
// the bare runtime (§1).
func (rt *Runtime) CreateContext(dev int) (*Context, error) {
	rt.mu.Lock()
	if dev < 0 || dev >= len(rt.devices) {
		rt.mu.Unlock()
		return nil, api.ErrInvalidDevice
	}
	d := rt.devices[dev]
	if rt.ctxPerDev[dev] >= rt.maxContextsPerDevice {
		rt.mu.Unlock()
		return nil, api.ErrTooManyContexts
	}
	rt.ctxPerDev[dev]++
	rt.mu.Unlock()

	rt.clock.Sleep(gpu.ContextCreateTime)
	c := &Context{rt: rt, devIndex: dev, dev: d}
	if _, err := d.MallocAs(&c.owner, rt.contextReservation.Load(), 0); err != nil {
		rt.mu.Lock()
		rt.ctxPerDev[dev]--
		rt.mu.Unlock()
		return nil, err
	}
	return c, nil
}

// ContextsOn reports the number of live contexts on device dev.
func (rt *Runtime) ContextsOn(dev int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ctxPerDev[dev]
}
