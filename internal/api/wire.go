package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// This file is the wire form of every Call and of Reply: a kind byte
// per type and a fixed field layout per kind, little-endian like
// internal/wal. The transport puts a frame header in front (length,
// version, kind, sequence number, span parent — internal/transport);
// what is defined here is the body that follows it. DESIGN.md "Wire
// format" has the byte tables.
//
// Conventions: every integer is 8 bytes except the three uint32 of a
// Dim3 and MemsetCall.Value (1 byte); a bool is one byte, 0 or 1; a
// string or slice is a uint32 count followed by its elements. A type's
// one bulk field (MemcpyHDCall.Data, MigrateFrameCall.Frame,
// Reply.Data) comes last as a presence byte followed by every
// remaining byte of the body — it has no length of its own to lie
// about, and nil (absent) stays distinct from empty. An empty slice of
// any other kind decodes as nil. The encoding is canonical: a body
// that decodes re-encodes to the same bytes.

// Kind is the one-byte wire tag of a Call type. Zero is never
// assigned, so a zeroed frame is not a call. The numbers are wire
// constants: never renumber, only append.
type Kind uint8

// Call kinds, in the order calls.go declares the types. Kinds 15 and 19
// are reserved: they were the deleted deadline call's (gvrtSetDeadline)
// and ping call's (gvrtPing), they are never reassigned, and a frame of
// either kind decodes to ErrWire like any unassigned kind.
const (
	KindRegisterFatBinary Kind = 1
	KindMalloc            Kind = 2
	KindFree              Kind = 3
	KindMemset            Kind = 4
	KindMemcpyHD          Kind = 5
	KindMemcpyDH          Kind = 6
	KindMemcpyDD          Kind = 7
	KindLaunch            Kind = 8
	KindSetDevice         Kind = 9
	KindGetDeviceCount    Kind = 10
	KindSynchronize       Kind = 11
	KindRegisterNested    Kind = 12
	KindSetAppID          Kind = 13
	KindSetTenant         Kind = 14
	KindGetSession        Kind = 16
	KindResume            Kind = 17
	KindCheckpoint        Kind = 18
	KindMigrate           Kind = 20
	KindMigrateFrame      Kind = 21
	KindAdopt             Kind = 22
	KindExit              Kind = 23
	KindStats             Kind = 24

	// KindReply tags the frame that answers a call.
	KindReply Kind = 0x40
	// KindSpan is WithSpan's kind. It is a flag rather than a number:
	// it is OR'ed onto the kind of the wrapped call, whose body follows
	// unchanged, and Parent travels in the frame header. The layout can
	// therefore wrap exactly one call that is not itself a WithSpan; a
	// wrapper around nothing reads as kind 0 and is rejected.
	KindSpan Kind = 0x80
)

// ErrWire is wrapped by every wire decoding error.
var ErrWire = errors.New("api: malformed wire data")

var le = binary.LittleEndian

// KindOf is the one call→kind table: c's wire kind, with KindSpan set on
// a WithSpan around a call that has a kind of its own. It names pointer
// forms only (Lift). Kind 0 means c has no wire form: nil, a value form,
// a type this file does not know, or a WithSpan around nothing or around
// another WithSpan.
func KindOf(c Call) Kind {
	switch c := c.(type) {
	case WithSpan:
		if _, nested := c.Call.(WithSpan); nested {
			return 0
		}
		if k := KindOf(c.Call); k != 0 {
			return k | KindSpan
		}
	case *RegisterFatBinaryCall:
		return KindRegisterFatBinary
	case *MallocCall:
		return KindMalloc
	case *FreeCall:
		return KindFree
	case *MemsetCall:
		return KindMemset
	case *MemcpyHDCall:
		return KindMemcpyHD
	case *MemcpyDHCall:
		return KindMemcpyDH
	case *MemcpyDDCall:
		return KindMemcpyDD
	case *LaunchCall:
		return KindLaunch
	case *SetDeviceCall:
		return KindSetDevice
	case *GetDeviceCountCall:
		return KindGetDeviceCount
	case *SynchronizeCall:
		return KindSynchronize
	case *RegisterNestedCall:
		return KindRegisterNested
	case *SetAppIDCall:
		return KindSetAppID
	case *SetTenantCall:
		return KindSetTenant
	case *GetSessionCall:
		return KindGetSession
	case *ResumeCall:
		return KindResume
	case *CheckpointCall:
		return KindCheckpoint
	case *MigrateCall:
		return KindMigrate
	case *MigrateFrameCall:
		return KindMigrateFrame
	case *AdoptCall:
		return KindAdopt
	case *ExitCall:
		return KindExit
	case *StatsCall:
		return KindStats
	}
	return 0
}

// AppendCall appends c's wire body to dst and reports c's kind (KindOf).
// The call's bulk field, if it has one, is returned as payload instead
// of being appended, so that a transport can send it without copying:
// the body is dst followed by payload. parent is WithSpan.Parent, for
// the frame header, and zero for any other call. Kind 0 means c has no
// wire form, and nothing is appended. A value form is lifted first.
func AppendCall(dst []byte, c Call) (body, payload []byte, k Kind, parent uint64) {
	c = Lift(c)
	if k = KindOf(c); k == 0 {
		return dst, nil, 0, 0
	}
	switch c := c.(type) {
	case WithSpan:
		body, payload, _, _ = AppendCall(dst, c.Call)
		return body, payload, k, c.Parent
	case *RegisterFatBinaryCall:
		dst = appendString(dst, c.Binary.ID)
		dst = le.AppendUint32(dst, uint32(len(c.Binary.Kernels)))
		for _, m := range c.Binary.Kernels {
			dst = appendString(dst, m.Name)
			dst = le.AppendUint64(dst, uint64(m.BaseTime))
			dst = appendBool(dst, m.UsesDynamicAlloc)
			dst = appendBool(dst, m.UsesNestedPointers)
			dst = appendString(dst, m.PTX)
		}
	case *MallocCall:
		dst = le.AppendUint64(dst, c.Size)
		dst = le.AppendUint64(dst, uint64(c.Kind))
	case *FreeCall:
		dst = le.AppendUint64(dst, uint64(c.Ptr))
	case *MemsetCall:
		dst = le.AppendUint64(dst, uint64(c.Dst))
		dst = le.AppendUint64(dst, c.Size)
		dst = append(dst, c.Value)
	case *MemcpyHDCall:
		dst = le.AppendUint64(dst, uint64(c.Dst))
		dst = le.AppendUint64(dst, c.Size)
		dst, payload = appendBool(dst, c.Data != nil), c.Data
	case *MemcpyDHCall:
		dst = le.AppendUint64(dst, uint64(c.Src))
		dst = le.AppendUint64(dst, c.Size)
	case *MemcpyDDCall:
		dst = le.AppendUint64(dst, uint64(c.Dst))
		dst = le.AppendUint64(dst, uint64(c.Src))
		dst = le.AppendUint64(dst, c.Size)
	case *LaunchCall:
		dst = appendDim3(dst, c.Grid)
		dst = appendDim3(dst, c.Block)
		dst = le.AppendUint64(dst, uint64(c.Repeat))
		dst = appendString(dst, c.Kernel)
		dst = appendUint64s(dst, c.PtrArgs)
		dst = appendUint64s(dst, c.Scalars)
		dst = le.AppendUint32(dst, uint32(len(c.ReadOnly)))
		for _, ro := range c.ReadOnly {
			dst = appendBool(dst, ro)
		}
	case *SetDeviceCall:
		dst = le.AppendUint64(dst, uint64(c.Device))
	case *RegisterNestedCall:
		dst = le.AppendUint64(dst, uint64(c.Parent))
		dst = appendUint64s(dst, c.Members)
		dst = appendUint64s(dst, c.Offsets)
	case *SetAppIDCall:
		dst = appendString(dst, c.AppID)
	case *SetTenantCall:
		dst = appendString(dst, c.Tenant)
	case *ResumeCall:
		dst = le.AppendUint64(dst, uint64(c.ID))
	case *MigrateCall:
		dst = appendString(dst, c.Target)
	case *MigrateFrameCall:
		dst, payload = appendBool(dst, c.Frame != nil), c.Frame
	case *AdoptCall:
		dst = appendString(dst, c.Dir)
	}
	return dst, payload, k, 0
}

// DecodeCall decodes the body of a kind-k frame whose header carried
// span parent parent. It is total: any input yields either an error
// wrapping ErrWire or a non-nil Call in its pointer form (a WithSpan
// around one for a span kind), and nothing is allocated on the
// word of a count the body is too short to honour. own says the caller
// hands body over, so the call's bulk field may alias it; otherwise it
// is copied and body can be reused.
func DecodeCall(k Kind, parent uint64, body []byte, own bool) (Call, error) {
	if k&KindSpan != 0 {
		inner, err := DecodeCall(k&^KindSpan, 0, body, own)
		if err != nil {
			return nil, err
		}
		return WithSpan{Parent: parent, Call: inner}, nil
	}
	if parent != 0 {
		return nil, fmt.Errorf("%w: span parent on a kind-%d frame without the span flag", ErrWire, k)
	}
	r := wireReader{b: body}
	var c Call
	switch k {
	case KindRegisterFatBinary:
		fb := FatBinary{ID: r.str()}
		// A kernel is at least two empty strings, a duration and two
		// flags: 18 bytes.
		if n := r.count(18); n > 0 {
			fb.Kernels = make([]KernelMeta, n)
			for i := range fb.Kernels {
				fb.Kernels[i] = KernelMeta{
					Name:               r.str(),
					BaseTime:           time.Duration(r.u64()),
					UsesDynamicAlloc:   r.bool(),
					UsesNestedPointers: r.bool(),
					PTX:                r.str(),
				}
			}
		}
		c = &RegisterFatBinaryCall{Binary: fb}
	case KindMalloc:
		c = &MallocCall{Size: r.u64(), Kind: AllocKind(r.u64())}
	case KindFree:
		c = &FreeCall{Ptr: DevPtr(r.u64())}
	case KindMemset:
		c = &MemsetCall{Dst: DevPtr(r.u64()), Size: r.u64(), Value: r.u8()}
	case KindMemcpyHD:
		c = &MemcpyHDCall{Dst: DevPtr(r.u64()), Size: r.u64(), Data: r.payload(own)}
	case KindMemcpyDH:
		c = &MemcpyDHCall{Src: DevPtr(r.u64()), Size: r.u64()}
	case KindMemcpyDD:
		c = &MemcpyDDCall{Dst: DevPtr(r.u64()), Src: DevPtr(r.u64()), Size: r.u64()}
	case KindLaunch:
		lc := &LaunchCall{
			Grid:    r.dim3(),
			Block:   r.dim3(),
			Repeat:  int(r.u64()),
			Kernel:  r.str(),
			PtrArgs: readUint64s[DevPtr](&r),
			Scalars: readUint64s[uint64](&r),
		}
		if n := r.count(1); n > 0 {
			lc.ReadOnly = make([]bool, n)
			for i := range lc.ReadOnly {
				lc.ReadOnly[i] = r.bool()
			}
		}
		c = lc
	case KindSetDevice:
		c = &SetDeviceCall{Device: int(r.u64())}
	case KindGetDeviceCount:
		c = &GetDeviceCountCall{}
	case KindSynchronize:
		c = &SynchronizeCall{}
	case KindRegisterNested:
		c = &RegisterNestedCall{
			Parent:  DevPtr(r.u64()),
			Members: readUint64s[DevPtr](&r),
			Offsets: readUint64s[uint64](&r),
		}
	case KindSetAppID:
		c = &SetAppIDCall{AppID: r.str()}
	case KindSetTenant:
		c = &SetTenantCall{Tenant: r.str()}
	case KindGetSession:
		c = &GetSessionCall{}
	case KindResume:
		c = &ResumeCall{ID: int64(r.u64())}
	case KindCheckpoint:
		c = &CheckpointCall{}
	case KindMigrate:
		c = &MigrateCall{Target: r.str()}
	case KindMigrateFrame:
		c = &MigrateFrameCall{Frame: r.payload(own)}
	case KindAdopt:
		c = &AdoptCall{Dir: r.str()}
	case KindExit:
		c = &ExitCall{}
	case KindStats:
		c = &StatsCall{}
	default:
		return nil, fmt.Errorf("%w: unknown call kind %d", ErrWire, k)
	}
	if err := r.end(); err != nil {
		return nil, fmt.Errorf("%w (kind %d)", err, k)
	}
	return c, nil
}

// AppendReply appends r's wire body to dst; r.Data is returned as the
// payload that completes it (see AppendCall).
func AppendReply(dst []byte, r Reply) (body, payload []byte) {
	dst = le.AppendUint64(dst, uint64(r.Code))
	dst = le.AppendUint64(dst, uint64(r.Ptr))
	dst = le.AppendUint64(dst, uint64(r.Count))
	dst = le.AppendUint64(dst, uint64(r.ID))
	return appendBool(dst, r.Data != nil), r.Data
}

// DecodeReply decodes the body of a KindReply frame; own is as for
// DecodeCall.
func DecodeReply(body []byte, own bool) (Reply, error) {
	r := wireReader{b: body}
	reply := Reply{
		Code:  Error(r.u64()),
		Ptr:   DevPtr(r.u64()),
		Count: int(r.u64()),
		ID:    int64(r.u64()),
		Data:  r.payload(own),
	}
	if err := r.end(); err != nil {
		return Reply{}, fmt.Errorf("%w (reply)", err)
	}
	return reply, nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	return append(le.AppendUint32(dst, uint32(len(s))), s...)
}

func appendUint64s[T ~uint64](dst []byte, v []T) []byte {
	dst = le.AppendUint32(dst, uint32(len(v)))
	for _, x := range v {
		dst = le.AppendUint64(dst, uint64(x))
	}
	return dst
}

func appendDim3(dst []byte, d Dim3) []byte {
	dst = le.AppendUint32(dst, d.X)
	dst = le.AppendUint32(dst, d.Y)
	return le.AppendUint32(dst, d.Z)
}

// wireReader consumes a body front to back. A read past the end, or a
// byte that is not a canonical bool, sets bad and every later read
// returns zero, so a decoder is a straight list of field reads with
// one check at the end.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) u8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (r *wireReader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

func (r *wireReader) dim3() Dim3 { return Dim3{X: r.u32(), Y: r.u32(), Z: r.u32()} }

func (r *wireReader) str() string { return string(r.take(int(r.u32()))) }

// count reads an element count and accepts it only if that many
// elements of at least size bytes each are still in the body, so a
// slice is never allocated larger than the bytes that arrived for it.
func (r *wireReader) count(size int) int {
	n := int(r.u32())
	if n < 0 || n > len(r.b)/size {
		r.bad = true
		return 0
	}
	return n
}

func readUint64s[T ~uint64](r *wireReader) []T {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = T(r.u64())
	}
	return v
}

// payload reads a trailing bulk field: nil when the presence byte is
// 0, otherwise every remaining byte (non-nil even when there are none).
func (r *wireReader) payload(own bool) []byte {
	if !r.bool() {
		return nil
	}
	p := r.b
	r.b = nil
	if own && p != nil {
		return p
	}
	return append(make([]byte, 0, len(p)), p...)
}

func (r *wireReader) end() error {
	switch {
	case r.bad:
		return fmt.Errorf("%w: body truncated or not canonical", ErrWire)
	case len(r.b) != 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrWire, len(r.b))
	}
	return nil
}
