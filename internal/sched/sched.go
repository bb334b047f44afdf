// Package sched defines the pluggable scheduling policies of the gvrt
// dispatcher (paper §2 "Configurable Scheduling", §4.3).
//
// A policy makes two kinds of decisions:
//
//   - PickDevice: which physical GPU a context binds to when one or more
//     devices have a free virtual GPU;
//   - PickWaiter: which waiting context receives a virtual GPU that has
//     just been released.
//
// The paper's evaluation uses first-come-first-served with round-robin
// device assignment that keeps the number of active vGPUs uniform
// (§5: "a first-come-first-served scheduling policy that assigns jobs to
// physical GPUs in a round-robin fashion and attempts to perform load
// balancing"); that is FCFS here. ShortestJobFirst and CreditBased
// implement the two alternatives §2 sketches.
package sched

import "time"

// DeviceLoad describes one candidate device at decision time.
type DeviceLoad struct {
	// Index is the device ordinal within the node.
	Index int
	// Speed is the device's relative kernel throughput.
	Speed float64
	// FreeVGPUs and ActiveVGPUs count the device's idle and bound
	// virtual GPUs.
	FreeVGPUs   int
	ActiveVGPUs int
	// MemAvailable is the device's free memory in bytes.
	MemAvailable uint64
}

// Waiter describes one context waiting for a virtual GPU.
type Waiter struct {
	// CtxID identifies the context.
	CtxID int64
	// Arrived is the model time the context joined the waiting list.
	Arrived time.Duration
	// NextKernelTime is the modeled duration of the kernel launch the
	// context is blocked on (duration × repeat), if known.
	NextKernelTime time.Duration
	// ConsumedGPUTime is the GPU time the context has used so far.
	ConsumedGPUTime time.Duration
	// MemDemand is the context's current memory footprint in bytes.
	MemDemand uint64
}

// Policy is a dispatcher scheduling policy. Implementations must be
// safe for concurrent use; the dispatcher may consult them from several
// goroutines.
type Policy interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// PickDevice returns the index into devs of the device the context
	// should bind to, or -1 to decline all candidates. devs is never
	// empty, every entry has at least one free vGPU, and the slice is
	// the caller's to reuse once the call returns.
	PickDevice(w Waiter, devs []DeviceLoad) int
	// PickWaiter returns the index into waiters of the context that
	// should receive a freed vGPU. waiters is never empty.
	PickWaiter(waiters []Waiter) int
}

// pickDeviceBalanced implements the dispatcher's default device choice:
// prefer devices whose free memory covers the context's demand, then
// fewest active vGPUs (uniform sharing), then highest speed.
func pickDeviceBalanced(w Waiter, devs []DeviceLoad) int {
	best := -1
	bestFits := false
	for i, d := range devs {
		fits := d.MemAvailable >= w.MemDemand
		if best == -1 {
			best, bestFits = i, fits
			continue
		}
		b := devs[best]
		switch {
		case fits != bestFits:
			if fits {
				best, bestFits = i, fits
			}
		case d.ActiveVGPUs != b.ActiveVGPUs:
			if d.ActiveVGPUs < b.ActiveVGPUs {
				best, bestFits = i, fits
			}
		case d.Speed > b.Speed:
			best, bestFits = i, fits
		}
	}
	return best
}

// FCFS is the default policy: waiting contexts are served in arrival
// order and devices are chosen to keep active vGPU counts uniform.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// PickDevice implements Policy.
func (FCFS) PickDevice(w Waiter, devs []DeviceLoad) int { return pickDeviceBalanced(w, devs) }

// PickWaiter implements Policy: first come, first served.
func (FCFS) PickWaiter(waiters []Waiter) int {
	best := 0
	for i, w := range waiters {
		if w.Arrived < waiters[best].Arrived {
			best = i
		}
	}
	return best
}

// ShortestJobFirst favours the waiting context whose pending kernel
// launch is shortest — the profile-driven alternative of §2. Scheduling
// decisions are "based on the kernels executed by the applications,
// their parameters, and their execution configuration" (§4.3): the
// dispatcher knows the blocked launch's modeled duration because
// binding is delayed until the first kernel launch.
type ShortestJobFirst struct{}

// Name implements Policy.
func (ShortestJobFirst) Name() string { return "sjf" }

// PickDevice implements Policy.
func (ShortestJobFirst) PickDevice(w Waiter, devs []DeviceLoad) int {
	return pickDeviceBalanced(w, devs)
}

// PickWaiter implements Policy: shortest pending kernel first; FCFS
// breaks ties.
func (ShortestJobFirst) PickWaiter(waiters []Waiter) int {
	best := 0
	for i, w := range waiters {
		b := waiters[best]
		if w.NextKernelTime < b.NextKernelTime ||
			(w.NextKernelTime == b.NextKernelTime && w.Arrived < b.Arrived) {
			best = i
		}
	}
	return best
}

// CreditBased favours the waiting context that has consumed the least
// GPU time so far — the fairness-oriented alternative of §2. Each
// context effectively holds credit inversely proportional to its past
// consumption.
type CreditBased struct{}

// Name implements Policy.
func (CreditBased) Name() string { return "credit" }

// PickDevice implements Policy.
func (CreditBased) PickDevice(w Waiter, devs []DeviceLoad) int {
	return pickDeviceBalanced(w, devs)
}

// PickWaiter implements Policy: least consumed GPU time first; FCFS
// breaks ties.
func (CreditBased) PickWaiter(waiters []Waiter) int {
	best := 0
	for i, w := range waiters {
		b := waiters[best]
		if w.ConsumedGPUTime < b.ConsumedGPUTime ||
			(w.ConsumedGPUTime == b.ConsumedGPUTime && w.Arrived < b.Arrived) {
			best = i
		}
	}
	return best
}
