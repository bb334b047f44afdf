// Package api defines the wire-level vocabulary shared by the frontend
// (intercept library), the gvrt runtime daemon, and the simulated CUDA
// runtime: device pointers, CUDA-style error codes, the calls and
// replies that travel over a connection, their byte layout on the wire
// (wire.go), and the kernel metadata carried by fat binaries.
//
// The same types serve the in-process transport, which passes them as
// values, and the TCP transport, which carries their wire form.
package api

import (
	"errors"
	"fmt"
)

// Error is a CUDA-style result code. The zero value is Success.
// Errors returned by the simulated CUDA runtime and by the gvrt runtime
// are drawn from the same space, mirroring how the paper's runtime
// forwards cudaError_t codes and adds its own (Table 1).
type Error int

// Result codes. The names and meanings follow cudaError_t where an
// equivalent exists; the gvrt-specific codes correspond to the error
// column of Table 1 in the paper.
const (
	Success Error = iota
	// ErrMemoryAllocation mirrors cudaErrorMemoryAllocation: the device
	// (or swap area) could not satisfy an allocation.
	ErrMemoryAllocation
	// ErrInvalidValue mirrors cudaErrorInvalidValue: a size/argument is
	// out of range, e.g. a transfer beyond the bounds of an allocation.
	ErrInvalidValue
	// ErrInvalidDevicePointer mirrors cudaErrorInvalidDevicePointer: no
	// valid page-table entry / allocation for the given pointer.
	ErrInvalidDevicePointer
	// ErrLaunchFailure mirrors cudaErrorLaunchFailure: a kernel failed.
	ErrLaunchFailure
	// ErrInvalidDevice mirrors cudaErrorInvalidDevice: bad device index.
	ErrInvalidDevice
	// ErrNoDevice mirrors cudaErrorNoDevice: no usable device remains.
	ErrNoDevice
	// ErrDeviceUnavailable reports that the bound device failed or was
	// removed while the call was in flight; the gvrt runtime recovers
	// contexts that observe it, the bare runtime does not.
	ErrDeviceUnavailable
	// ErrTooManyContexts reports the CUDA runtime's observed limit on
	// concurrent contexts (eight per device; see paper §1 and §5.3.1).
	ErrTooManyContexts
	// ErrRuntimeUnstable reports the bare CUDA runtime's observed
	// instability when more than eight concurrent client processes use
	// it (paper §5.3.2: "the CUDA runtime does not currently support
	// more than eight concurrent jobs stably").
	ErrRuntimeUnstable
	// ErrSwapAllocation reports that the host swap area could not be
	// grown (Table 1: "Swap memory cannot be allocated").
	ErrSwapAllocation
	// ErrSizeMismatch reports a host→swap copy whose size exceeds the
	// allocation (Table 1: "Swap-data size mismatch").
	ErrSizeMismatch
	// ErrNotRegistered reports a kernel launch for a function name that
	// was never registered via a fat binary.
	ErrNotRegistered
	// ErrUnsupported reports an operation the runtime deliberately
	// excludes, e.g. dynamic device-side allocation under sharing
	// (paper §1: such applications are excluded from sharing and
	// dynamic scheduling).
	ErrUnsupported
	// ErrConnectionClosed reports a torn connection between the
	// frontend and the runtime daemon.
	ErrConnectionClosed
	// ErrDeadlineExceeded reports a call that exceeded its model-time
	// deadline; the deadline guard tears the connection down, so no
	// stale reply can ever satisfy a later call.
	ErrDeadlineExceeded
	// ErrOverloaded reports a connection refused while draining: the
	// node is shutting down gracefully, so it answers every call of a
	// new connection with this code instead of serving it; the
	// application may connect again, to this node once it is back or
	// to another.
	ErrOverloaded
	// ErrSessionClaimed reports a Resume of a persisted session that
	// another connection already re-attached to: exactly one client wins
	// the race, every later claimant sees this code (distinct from
	// ErrInvalidValue, which means the session never existed).
	ErrSessionClaimed
	// ErrJournalFailure reports that the durability journal could not
	// persist a commit record: the operation's effects are NOT durable
	// and a crash may lose them, so the runtime refuses to acknowledge
	// the call as successful.
	ErrJournalFailure
	// ErrFenced reports a mutating operation issued under a session
	// lease this node no longer holds: ownership moved (failover or
	// migration bumped the lease epoch), so the deposed owner's write
	// is rejected instead of corrupting state it no longer owns. The
	// condition is permanent for this connection — retrying cannot
	// succeed; the client must reconnect to the new owner and Resume.
	ErrFenced
	// ErrQuotaExceeded reports a tenant quota violation: the tenant's
	// admitted-session cap or aggregate allocated-bytes cap (set through
	// the control plane) would be exceeded by this call.
	ErrQuotaExceeded
)

var errNames = map[Error]string{
	Success:                 "success",
	ErrMemoryAllocation:     "out of memory",
	ErrInvalidValue:         "invalid value",
	ErrInvalidDevicePointer: "invalid device pointer",
	ErrLaunchFailure:        "kernel launch failure",
	ErrInvalidDevice:        "invalid device ordinal",
	ErrNoDevice:             "no CUDA-capable device is available",
	ErrDeviceUnavailable:    "device unavailable",
	ErrTooManyContexts:      "too many concurrent contexts",
	ErrRuntimeUnstable:      "runtime unstable: too many concurrent client processes",
	ErrSwapAllocation:       "swap memory cannot be allocated",
	ErrSizeMismatch:         "swap-data size mismatch",
	ErrNotRegistered:        "kernel function not registered",
	ErrUnsupported:          "operation not supported under sharing",
	ErrConnectionClosed:     "connection closed",
	ErrDeadlineExceeded:     "call deadline exceeded",
	ErrOverloaded:           "node draining, connection refused",
	ErrSessionClaimed:       "session already resumed by another connection",
	ErrJournalFailure:       "durability journal write failed",
	ErrFenced:               "session lease lost, write fenced",
	ErrQuotaExceeded:        "tenant quota exceeded",
}

// Error implements the error interface. Success should never be wrapped
// in an error value; use Err to convert.
func (e Error) Error() string {
	if s, ok := errNames[e]; ok {
		return "cuda: " + s
	}
	return fmt.Sprintf("cuda: unknown error %d", int(e))
}

// Err converts a result code to a Go error: nil for Success, the code
// itself otherwise.
func (e Error) Err() error {
	if e == Success {
		return nil
	}
	return e
}

// Code extracts the result code from an error produced by this module:
// nil maps to Success, an api.Error anywhere in the wrap chain maps to
// itself, anything else to ErrLaunchFailure (the catch-all the CUDA
// runtime uses for unexpected internal failures).
func Code(err error) Error {
	if err == nil {
		return Success
	}
	var e Error
	if errors.As(err, &e) {
		return e
	}
	return ErrLaunchFailure
}
