package api

import (
	"reflect"
	"time"
)

// DevPtr is a device (or, under gvrt, virtual) memory address as seen by
// an application. 0 is the null pointer.
type DevPtr uint64

// Dim3 is a CUDA launch dimension.
type Dim3 struct{ X, Y, Z uint32 }

// Threads returns the total thread count of the dimension.
func (d Dim3) Threads() uint64 {
	x, y, z := uint64(d.X), uint64(d.Y), uint64(d.Z)
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// KernelMeta is the scheduling-relevant metadata extracted from a fat
// binary for one kernel function. The paper's runtime obtains the
// equivalent by parsing the PTX pseudo-assembly shipped in the binary
// (§1); here the "PTX" is the metadata itself.
type KernelMeta struct {
	// Name is the kernel's symbol name, unique within the fat binary.
	Name string
	// BaseTime is the kernel's execution time on the reference device
	// (Tesla C2050). Actual devices scale it by their relative speed.
	BaseTime time.Duration
	// UsesDynamicAlloc marks kernels that allocate device memory from
	// device code; such applications are served but excluded from
	// sharing and dynamic scheduling (paper §1).
	UsesDynamicAlloc bool
	// UsesNestedPointers marks kernels traversing nested structures;
	// their buffers must be registered via RegisterNested.
	UsesNestedPointers bool
	// PTX optionally carries the kernel's pseudo-assembly; when
	// present, AnnotateFromPTX derives the two flags above from it the
	// way the paper's runtime does (§1), so toolchains need not set
	// them by hand.
	PTX string
}

// FatBinary is the device code image an application registers before any
// other CUDA activity (__cudaRegisterFatBinary).
type FatBinary struct {
	// ID identifies the image; host-side kernel implementations are
	// looked up by (ID, kernel name) in the process-local registry.
	ID string
	// Kernels lists the kernel functions contained in the image.
	Kernels []KernelMeta
}

// Call is a single intercepted CUDA call travelling from the frontend to
// a runtime. Every concrete type has a wire kind and a fixed byte layout
// in wire.go, which is what the TCP transport carries; a new call type
// needs both (TestWireRoundTripEveryCall fails without them).
//
// A call travels in its pointer form (*LaunchCall), which boxes into a
// Call without allocating. The value form (LaunchCall{}) is still
// served: every entry that accepts calls runs Lift once, and past it
// the runtime and the wire code name pointer forms only.
type Call interface {
	// CallName returns the CUDA-level name of the call, for tracing.
	CallName() string
}

// Lift returns c in its pointer form: a call passed by value is copied
// behind a fresh pointer, and a WithSpan gets its wrapped call lifted.
// A pointer form, nil and anything else that is not a struct come back
// as they are, at the cost of one type check.
func Lift(c Call) Call {
	if w, ok := c.(WithSpan); ok {
		if w.Call != nil && reflect.TypeOf(w.Call).Kind() == reflect.Struct {
			w.Call = Lift(w.Call)
			return w
		}
		return c
	}
	v := reflect.ValueOf(c)
	if v.Kind() != reflect.Struct {
		return c
	}
	p := reflect.New(v.Type())
	p.Elem().Set(v)
	return p.Interface().(Call)
}

// RegisterFatBinaryCall mirrors __cudaRegisterFatBinary followed by the
// per-kernel __cudaRegisterFunction calls: it ships the whole image.
type RegisterFatBinaryCall struct{ Binary FatBinary }

// AllocKind distinguishes the CUDA allocation flavours.
type AllocKind int

// Allocation kinds carried by MallocCall.
const (
	// AllocLinear is a cudaMalloc linear allocation.
	AllocLinear AllocKind = iota
	// AllocPitched is a cudaMallocPitch allocation (rows padded to the
	// device's alignment).
	AllocPitched
	// AllocArray is a cudaMallocArray allocation.
	AllocArray
)

// MallocCall mirrors cudaMalloc / cudaMallocPitch / cudaMallocArray,
// distinguished by Kind. Size is the total byte size (already padded
// for pitched allocations).
type MallocCall struct {
	Size uint64
	Kind AllocKind
}

// FreeCall mirrors cudaFree.
type FreeCall struct{ Ptr DevPtr }

// MemsetCall mirrors cudaMemset: fill Size bytes at Dst with Value.
type MemsetCall struct {
	Dst   DevPtr
	Value byte
	Size  uint64
}

// MemcpyHDCall mirrors cudaMemcpy(..., cudaMemcpyHostToDevice). Data is
// the host source buffer (Dst may point mid-allocation; the runtime
// resolves it against the page table). When Data is nil the transfer is
// synthetic: Size bytes are moved for timing and accounting purposes
// but no real bytes are carried, which keeps multi-gigabyte modeled
// workloads cheap.
type MemcpyHDCall struct {
	Dst  DevPtr
	Data []byte
	Size uint64
}

// MemcpyDHCall mirrors cudaMemcpy(..., cudaMemcpyDeviceToHost).
type MemcpyDHCall struct {
	Src  DevPtr
	Size uint64
}

// MemcpyDDCall mirrors cudaMemcpy(..., cudaMemcpyDeviceToDevice).
type MemcpyDDCall struct {
	Dst, Src DevPtr
	Size     uint64
}

// LaunchCall mirrors cudaConfigureCall + cudaSetupArgument + cudaLaunch.
//
// Repeat compresses a back-to-back sequence of identical launches with
// no intervening CPU phase into one call: the device is occupied for
// Repeat kernel executions and per-call overhead is charged Repeat
// times. Scheduling decisions (binding, swapping) happen at call
// granularity in the paper too — between launches of a tight GPU phase
// there is no opportunity to unbind — so this compression preserves the
// behaviour while keeping the timed simulation efficient. Repeat <= 1
// means a single launch.
type LaunchCall struct {
	Kernel  string
	Grid    Dim3
	Block   Dim3
	PtrArgs []DevPtr
	Scalars []uint64
	Repeat  int
	// ReadOnly optionally marks pointer arguments the kernel only
	// reads (ReadOnly[i] corresponds to PtrArgs[i]). Absent this
	// information the runtime assumes every referenced buffer may be
	// modified (§4.5, Figure 4); providing it enables the paper's
	// finer-grained handling and cheaper swaps.
	ReadOnly []bool
}

// Launches returns the number of kernel executions the call represents.
func (c LaunchCall) Launches() int {
	if c.Repeat <= 1 {
		return 1
	}
	return c.Repeat
}

// SetDeviceCall mirrors cudaSetDevice. The gvrt runtime ignores it to
// keep device procurement abstracted (paper §4.3); the bare runtime
// honours it.
type SetDeviceCall struct{ Device int }

// GetDeviceCountCall mirrors cudaGetDeviceCount. The gvrt runtime
// overrides it to return the number of virtual GPUs (paper §4.3).
type GetDeviceCountCall struct{}

// SynchronizeCall mirrors cudaDeviceSynchronize/cudaThreadSynchronize.
type SynchronizeCall struct{}

// RegisterNestedCall is the gvrt-specific API through which programs
// declare nested data structures (paper §1, §4.5): Parent is the
// allocation holding the pointers, Members are the allocations pointed
// to, and Offsets[i] is the byte offset within Parent where the device
// address of Members[i] must be patched whenever Parent becomes
// device-resident.
type RegisterNestedCall struct {
	Parent  DevPtr
	Members []DevPtr
	Offsets []uint64
}

// SetAppIDCall is the CUDA 4.0 compatibility extension of §4.8: "each
// thread connection should carry the information about the
// corresponding application identifier. This information will be used
// to ensure that application threads sharing data are mapped onto the
// same device." Threads announcing the same non-empty AppID are bound
// to the same physical GPU and are excluded from independent migration.
type SetAppIDCall struct{ AppID string }

// SetTenantCall announces which tenant this application thread belongs
// to, for multi-tenant quota enforcement: once announced, the thread
// counts against the tenant's admitted-session cap, and its allocations
// against the tenant's aggregate byte cap (quotas are set through the
// control plane, see internal/ctrlplane). Announcing a tenant whose
// session cap is already full fails the call with ErrQuotaExceeded.
type SetTenantCall struct{ Tenant string }

// GetSessionCall asks the runtime for this connection's session
// identifier, which names the context's persisted state across a full
// node restart (§4.6's BLCR-style capability).
type GetSessionCall struct{}

// ResumeCall re-attaches a fresh connection to the persisted memory
// state saved under ID before a node restart. It must be the
// connection's first memory-related call.
type ResumeCall struct{ ID int64 }

// CheckpointCall is the gvrt-specific explicit checkpoint request
// (paper §2, §4.6): it forces the swap copy of all dirty entries so the
// context can be restarted on another device without rerunning kernels.
type CheckpointCall struct{}

// MigrateCall asks the runtime to migrate this connection's session to
// the node listening at Target: checkpoint, export the sealed image,
// ship it chunk-by-chunk over a transport connection (failover wire
// protocol), and — on a committed import — depose the local copy so any
// later mutating call on this connection is fenced with ErrFenced. The
// client then reconnects to Target and Resumes under the same session
// ID.
type MigrateCall struct{ Target string }

// MigrateFrameCall carries one failover wire-protocol frame (hello /
// chunk / commit; see internal/failover) to a migration target. The
// reply's Data holds the response frame (need-set for hello, result for
// commit).
type MigrateFrameCall struct{ Frame []byte }

// AdoptCall is the failover promotion primitive: recover every session
// committed in the journal directory Dir — a dead owner's durable state
// on shared storage — into this runtime as orphan sessions that clients
// re-attach to with ResumeCall. Reply.Count reports how many sessions
// were adopted. The operator sends it once the old owner is dead or
// fenced; each client's ResumeCall then claims its lapsed lease.
type AdoptCall struct{ Dir string }

// ExitCall announces the orderly end of an application thread; the
// runtime releases its context, page table and swap space.
type ExitCall struct{}

func (RegisterFatBinaryCall) CallName() string { return "__cudaRegisterFatBinary" }
func (MallocCall) CallName() string            { return "cudaMalloc" }
func (FreeCall) CallName() string              { return "cudaFree" }
func (MemsetCall) CallName() string            { return "cudaMemset" }
func (MemcpyHDCall) CallName() string          { return "cudaMemcpyHtoD" }
func (MemcpyDHCall) CallName() string          { return "cudaMemcpyDtoH" }
func (MemcpyDDCall) CallName() string          { return "cudaMemcpyDtoD" }
func (LaunchCall) CallName() string            { return "cudaLaunch" }
func (SetDeviceCall) CallName() string         { return "cudaSetDevice" }
func (GetDeviceCountCall) CallName() string    { return "cudaGetDeviceCount" }
func (SynchronizeCall) CallName() string       { return "cudaDeviceSynchronize" }
func (RegisterNestedCall) CallName() string    { return "gvrtRegisterNested" }
func (SetAppIDCall) CallName() string          { return "gvrtSetAppID" }
func (SetTenantCall) CallName() string         { return "gvrtSetTenant" }
func (GetSessionCall) CallName() string        { return "gvrtGetSession" }
func (ResumeCall) CallName() string            { return "gvrtResume" }
func (CheckpointCall) CallName() string        { return "gvrtCheckpoint" }
func (MigrateCall) CallName() string           { return "gvrtMigrate" }
func (MigrateFrameCall) CallName() string      { return "gvrtMigrateFrame" }
func (AdoptCall) CallName() string             { return "gvrtAdopt" }
func (ExitCall) CallName() string              { return "gvrtExit" }

// Reply is the synchronous response to a Call.
type Reply struct {
	// Code is the CUDA result code; Success for an OK call.
	Code Error
	// Ptr returns the allocated pointer for MallocCall.
	Ptr DevPtr
	// Data returns the copied bytes for MemcpyDHCall.
	Data []byte
	// Count returns the device count for GetDeviceCountCall.
	Count int
	// ID returns the session identifier for GetSessionCall.
	ID int64
}

// HDCopy describes one transfer of a host→device batch: Data carries
// the real bytes (Size is then len(Data)) or, when nil, Size describes
// a synthetic timing-only transfer.
type HDCopy struct {
	Dst  DevPtr
	Data []byte
	Size uint64
}

// DHCopy describes one transfer of a device→host batch.
type DHCopy struct {
	Src  DevPtr
	Size uint64
}
