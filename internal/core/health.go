package core

import (
	"fmt"

	"gvrt/internal/cudart"
	"gvrt/internal/trace"
)

// This file implements device re-admission: the self-healing half of
// §4.6's fault tolerance. Failure marks a device unhealthy and detaches
// its contexts (launch.go); the health monitor here periodically probes
// unhealthy devices and, when the sticky fault has cleared (hot-swap,
// driver reset, operator Restore), rebuilds the device's vGPU workers
// and hands them back to the waiting list.
//
// The monitor is lazy: it starts on the first device failure and exits
// as soon as no unhealthy device remains, so a healthy node pays
// nothing and small-scale tests do not carry a spinning goroutine.

// kickHealthMonitor ensures the monitor goroutine is running; called
// from onDeviceFailure.
func (rt *Runtime) kickHealthMonitor() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.healthRunning || rt.closed {
		return
	}
	rt.healthRunning = true
	go rt.healthMonitor()
}

// healthMonitor probes unhealthy devices every DefaultHealthInterval
// and re-admits the ones whose fault has cleared. It exits when none
// are left (a later failure kicks it again) or the runtime closes.
func (rt *Runtime) healthMonitor() {
	for {
		rt.clock.Pace(DefaultHealthInterval)
		rt.mu.Lock()
		if rt.closed {
			rt.healthRunning = false
			rt.mu.Unlock()
			return
		}
		var sick []*deviceState
		for _, ds := range rt.devs {
			if !ds.healthy.Load() && !ds.dev.Removed() {
				sick = append(sick, ds)
			}
		}
		if len(sick) == 0 {
			rt.healthRunning = false
			rt.mu.Unlock()
			return
		}
		rt.mu.Unlock()
		for _, ds := range sick {
			if rt.probeDevice(ds) {
				rt.readmitDevice(ds)
			}
		}
	}
}

// probeDevice checks whether an unhealthy device answers again: the
// sticky failure flag must be clear and a trivial allocate/free round
// trip must succeed (exercising the same path a vGPU rebuild will).
func (rt *Runtime) probeDevice(ds *deviceState) bool {
	if ds.dev.Failed() || ds.dev.Removed() {
		return false
	}
	p, err := ds.dev.Malloc(1)
	if err != nil {
		return false
	}
	_ = ds.dev.Free(p)
	return true
}

// readmitDevice hot re-adds a recovered device: the dead vGPUs' CUDA
// contexts are destroyed (releasing their reservations and any
// allocations stranded by the failure), a fresh set is created, and the
// slots are offered to the waiting list. Emits trace.KindRecovery with
// the device ordinal — the device-level counterpart of a context
// recovery (which carries Device -1).
func (rt *Runtime) readmitDevice(ds *deviceState) {
	rt.mu.Lock()
	if ds.healthy.Load() || rt.closed {
		rt.mu.Unlock()
		return
	}
	ds.mu.Lock()
	old := ds.vgpus
	ds.mu.Unlock()
	rt.mu.Unlock()

	// Clear the dead workers first so their context slots and memory
	// reservations are free for the rebuild. They are unbound and dead
	// since the failure; nobody can reach them through the runtime.
	for _, v := range old {
		v.cuctx.Destroy()
	}
	fresh := make([]*cudart.Context, 0, rt.cfg.vgpus())
	for k := 0; k < rt.cfg.vgpus(); k++ {
		cuctx, err := rt.crt.CreateContext(ds.index)
		if err != nil {
			// The device relapsed (or an injected fault bit) mid-rebuild;
			// roll back and let the next probe tick retry.
			for _, c := range fresh {
				c.Destroy()
			}
			rt.eventf(trace.KindNote, 0, ds.index, "re-admission aborted: %v", err)
			return
		}
		fresh = append(fresh, cuctx)
	}

	rt.mu.Lock()
	if ds.healthy.Load() || rt.closed {
		rt.mu.Unlock()
		for _, c := range fresh {
			c.Destroy()
		}
		return
	}
	vgpus := make([]*vGPU, len(fresh))
	for k, cuctx := range fresh {
		vgpus[k] = &vGPU{
			name:  fmt.Sprintf("vGPU%d.%d", ds.index, k),
			ds:    ds,
			cuctx: cuctx,
		}
	}
	ds.mu.Lock()
	ds.vgpus = vgpus
	ds.mu.Unlock()
	ds.healthy.Store(true)
	// Offer every new slot to the waiting list, exactly like a hot-added
	// device (§2's dynamic upgrade). The fresh slots are unbound by
	// construction.
	for _, v := range vgpus {
		rt.releaseVGPULocked(v)
	}
	rt.mu.Unlock()

	rt.readmissions.Add(1)
	rt.event(trace.KindRecovery, 0, 0, ds.index, "device re-admitted")
}
