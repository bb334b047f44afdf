package api

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gvrt/internal/trace"
)

// wireCalls is a populated value (or several, where nil and empty must
// stay distinct) of every Call type, keyed by type name.
// TestWireRoundTripEveryCall fails when a type implementing Call is
// missing here or has no wire kind.
var wireCalls = map[string][]Call{
	"RegisterFatBinaryCall": {
		RegisterFatBinaryCall{},
		RegisterFatBinaryCall{Binary: FatBinary{ID: "bin1", Kernels: []KernelMeta{
			{Name: "k", BaseTime: 3 * time.Millisecond, UsesDynamicAlloc: true, PTX: "ld.global.f32 %f1, [%rd1];"},
			{Name: "n", BaseTime: -1, UsesNestedPointers: true},
		}}},
	},
	"MallocCall":   {MallocCall{Size: 1 << 20, Kind: AllocPitched}, MallocCall{Size: 1, Kind: -7}},
	"FreeCall":     {FreeCall{Ptr: 0xdead}},
	"MemsetCall":   {MemsetCall{Dst: 0x1000, Value: 0xAB, Size: 64}},
	"MemcpyDHCall": {MemcpyDHCall{Src: 0x1000, Size: 3}},
	"MemcpyDDCall": {MemcpyDDCall{Dst: 1, Src: 2, Size: 3}},
	"MemcpyHDCall": {
		MemcpyHDCall{Dst: 0x1000, Data: []byte{1, 2, 3}},
		MemcpyHDCall{Dst: 0x1000, Size: 1 << 30},          // nil Data: synthetic
		MemcpyHDCall{Dst: 0x1000, Data: []byte{}},         // empty is not synthetic
		MemcpyHDCall{Data: bytes.Repeat([]byte{7}, 9000)}, // larger than a read buffer
	},
	"LaunchCall": {
		LaunchCall{},
		LaunchCall{Kernel: "k", Grid: Dim3{X: 2, Y: 3, Z: 4}, Block: Dim3{X: 32}, PtrArgs: []DevPtr{0x1000, 1<<63 | 5},
			Scalars: []uint64{7}, Repeat: 4, ReadOnly: []bool{true, false}},
		LaunchCall{Kernel: "neg", Repeat: -3},
	},
	"SetDeviceCall":      {SetDeviceCall{Device: 2}, SetDeviceCall{Device: -1}},
	"GetDeviceCountCall": {GetDeviceCountCall{}},
	"SynchronizeCall":    {SynchronizeCall{}},
	"RegisterNestedCall": {RegisterNestedCall{Parent: 1, Members: []DevPtr{2, 3}, Offsets: []uint64{0, 8}}},
	"SetAppIDCall":       {SetAppIDCall{AppID: "app-1"}},
	"SetTenantCall":      {SetTenantCall{Tenant: "tenant-é"}},
	"GetSessionCall":     {GetSessionCall{}},
	"ResumeCall":         {ResumeCall{ID: 42}, ResumeCall{ID: -1}},
	"CheckpointCall":     {CheckpointCall{}},
	"MigrateCall":        {MigrateCall{Target: "127.0.0.1:7000"}},
	"MigrateFrameCall":   {MigrateFrameCall{Frame: []byte("GVCK....")}, MigrateFrameCall{}, MigrateFrameCall{Frame: []byte{}}},
	"AdoptCall":          {AdoptCall{Dir: "/var/lib/gvrt/journal"}},
	"ExitCall":           {ExitCall{}},
	"StatsCall":          {StatsCall{}},
	"WithSpan": {
		WithSpan{Parent: 42, Call: LaunchCall{Kernel: "k", Repeat: 3}},
		WithSpan{Call: ExitCall{}}, // a zero parent still arrives wrapped
		WithSpan{Parent: 1<<64 - 1, Call: MemcpyHDCall{Data: []byte{9}}},
	},
}

// callTypes returns the name of every type in this package's non-test
// sources that has a CallName method, i.e. implements Call.
func callTypes(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name != "CallName" || fn.Recv == nil || len(fn.Recv.List) != 1 {
					continue
				}
				if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
		}
	}
	return names
}

// encodeCall returns c's kind, span parent and whole body.
func encodeCall(t *testing.T, c Call) (Kind, uint64, []byte) {
	t.Helper()
	body, payload, k, parent := AppendCall(nil, c)
	if k == 0 {
		t.Fatalf("%#v has no wire kind", c)
	}
	return k, parent, append(body, payload...)
}

func TestWireRoundTripEveryCall(t *testing.T) {
	types := callTypes(t)
	if len(types) != len(wireCalls) {
		t.Errorf("%d types implement Call, wireCalls has %d", len(types), len(wireCalls))
	}
	kindOf := map[Kind]string{}
	for _, name := range types {
		values := wireCalls[name]
		if len(values) == 0 {
			t.Errorf("%s implements Call but has no entry in wireCalls: give it a Kind, a case in AppendCall and DecodeCall, and a value here", name)
		}
		for _, c := range values {
			if got := reflect.TypeOf(c).Name(); got != name {
				t.Fatalf("wireCalls[%q] holds a %s", name, got)
			}
			k, parent, body := encodeCall(t, c)
			if name == "WithSpan" {
				if k&KindSpan == 0 {
					t.Errorf("%#v encodes as kind %d, without the span flag", c, k)
				}
			} else if prev, dup := kindOf[k]; dup && prev != name {
				t.Errorf("%s and %s share kind %d", prev, name, k)
			} else {
				kindOf[k] = name
			}
			for _, own := range []bool{false, true} {
				in := bytes.Clone(body)
				got, err := DecodeCall(k, parent, in, own)
				if err != nil {
					t.Errorf("%#v (own=%v): %v", c, own, err)
					continue
				}
				if !own {
					clear(in) // a copying decode keeps nothing of its input
				}
				if !reflect.DeepEqual(got, Lift(c)) {
					t.Errorf("round trip (own=%v):\n  sent %#v\n  got  %#v", own, c, got)
				}
				if k2, p2, again := encodeCall(t, got); k2 != k || p2 != parent || !bytes.Equal(again, body) {
					t.Errorf("%#v does not re-encode to the bytes it was decoded from", c)
				}
			}
			if name == "WithSpan" {
				continue
			}
			// A present bulk field is "the rest of the body", whatever
			// its length; every other body has exactly one valid length.
			if hasPayload(c) {
				continue
			}
			if _, err := DecodeCall(k, parent, append(bytes.Clone(body), 0), false); !errors.Is(err, ErrWire) {
				t.Errorf("%#v: trailing byte accepted (%v)", c, err)
			}
			for n := 0; n < len(body); n++ {
				if got, err := DecodeCall(k, parent, body[:n], false); !errors.Is(err, ErrWire) || got != nil {
					t.Errorf("%#v: %d of %d bytes decoded to %#v, %v", c, n, len(body), got, err)
				}
			}
		}
	}
}

func hasPayload(c Call) bool {
	_, payload, _, _ := AppendCall(nil, c)
	return payload != nil
}

func TestWireReplyRoundTrip(t *testing.T) {
	for _, r := range []Reply{
		{},
		{Code: ErrInvalidValue, Ptr: 0x42, Data: []byte{9}, Count: 4, ID: -7},
		{Data: []byte{}},
		{Code: Error(-1), Count: -1, Data: bytes.Repeat([]byte{1}, 9000)},
	} {
		head, payload := AppendReply(nil, r)
		body := append(head, payload...)
		for _, own := range []bool{false, true} {
			got, err := DecodeReply(bytes.Clone(body), own)
			if err != nil || !reflect.DeepEqual(got, r) {
				t.Errorf("reply round trip (own=%v): sent %+v, got %+v, %v", own, r, got, err)
			}
		}
		if _, err := DecodeReply(body[:len(head)-1], false); !errors.Is(err, ErrWire) {
			t.Errorf("truncated reply accepted: %v", err)
		}
	}
	// An absent payload admits nothing after the presence byte.
	head, _ := AppendReply(nil, Reply{})
	if _, err := DecodeReply(append(head, 1), false); !errors.Is(err, ErrWire) {
		t.Errorf("bytes after an absent payload accepted: %v", err)
	}
}

func TestWireDecodeRejects(t *testing.T) {
	_, _, launch := encodeCall(t, LaunchCall{Kernel: "k", PtrArgs: []DevPtr{1}})
	for _, tc := range []struct {
		name   string
		kind   Kind
		parent uint64
		body   []byte
	}{
		{"kind 0", 0, 0, nil},
		{"unassigned kind", KindStats + 1, 0, nil},
		// Kinds 15 and 19 are reserved, never reassigned (wire.go).
		{"reserved kind 15", 15, 0, make([]byte, 8)},
		{"span around reserved kind 15", KindSpan | 15, 7, make([]byte, 8)},
		{"reserved kind 19", 19, 0, nil},
		{"span around reserved kind 19", KindSpan | 19, 7, nil},
		{"reply kind as a call", KindReply, 0, nil},
		{"span around nothing", KindSpan, 7, nil},
		{"span around an unassigned kind", KindSpan | KindReply, 7, nil},
		{"span parent without the flag", KindLaunch, 7, launch},
		{"bool that is neither 0 nor 1", KindMigrateFrame, 0, []byte{2}},
		{"string longer than the body", KindSetAppID, 0, []byte{0xFF, 0xFF, 0xFF, 0x7F, 'a'}},
	} {
		if got, err := DecodeCall(tc.kind, tc.parent, tc.body, false); !errors.Is(err, ErrWire) || got != nil {
			t.Errorf("%s: decoded to %#v, %v", tc.name, got, err)
		}
	}
	if _, _, k, _ := AppendCall(nil, nil); k != 0 {
		t.Errorf("nil call has kind %d", k)
	}
	if _, _, k, _ := AppendCall(nil, WithSpan{Parent: 1}); k != 0 {
		t.Errorf("WithSpan around nothing has kind %d", k)
	}
	if _, _, k, _ := AppendCall(nil, WithSpan{Call: WithSpan{Call: ExitCall{}}}); k != 0 {
		t.Errorf("nested WithSpan has kind %d", k)
	}
	// An empty slice that is not a bulk field travels as a zero count
	// and comes back nil.
	k, _, body := encodeCall(t, LaunchCall{PtrArgs: []DevPtr{}, Scalars: []uint64{}, ReadOnly: []bool{}})
	got, err := DecodeCall(k, 0, body, false)
	if lc, ok := got.(*LaunchCall); err != nil || !ok || lc.PtrArgs != nil || lc.Scalars != nil || lc.ReadOnly != nil {
		t.Errorf("empty slices decoded to %#v, %v", got, err)
	}
}

// TestWireCountCannotAllocate: an element count is honoured only up to
// the bytes that back it, so a short body announcing 2^28 pointer
// arguments (or kernels) is rejected without allocating for them.
func TestWireCountCannotAllocate(t *testing.T) {
	_, _, launch := encodeCall(t, LaunchCall{Kernel: "k"})
	lying := bytes.Clone(launch)
	le.PutUint32(lying[12+12+8+4+1:], 1<<28) // PtrArgs count
	_, _, fat := encodeCall(t, RegisterFatBinaryCall{Binary: FatBinary{ID: "b"}})
	lyingFat := bytes.Clone(fat)
	le.PutUint32(lyingFat[4+1:], 1<<28) // kernel count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tc := range []struct {
		kind Kind
		body []byte
	}{{KindLaunch, lying}, {KindRegisterFatBinary, lyingFat}} {
		if got, err := DecodeCall(tc.kind, 0, tc.body, false); !errors.Is(err, ErrWire) || got != nil {
			t.Errorf("kind %d with a lying count decoded to %#v, %v", tc.kind, got, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("rejecting two lying counts allocated %d bytes", grew)
	}
}

// TestCallHistogramsCoverEveryKind checks the table the dispatcher's
// per-kind histograms rest on: every call type's KindOf is distinct and
// in trace.Timings.ObserveCall's range, so each type's service times
// land in a histogram of its own, keyed by its CallName.
func TestCallHistogramsCoverEveryKind(t *testing.T) {
	var tm trace.Timings
	seen := map[Kind]string{}
	for name, values := range wireCalls {
		c := Lift(values[0])
		k := KindOf(c)
		if w, ok := c.(WithSpan); ok {
			if k != KindOf(w.Call)|KindSpan {
				t.Errorf("KindOf(%#v) = %d, want the wrapped kind with the span flag", c, k)
			}
			continue
		}
		if k == 0 || int(k) >= trace.CallKinds {
			t.Errorf("KindOf(%s) = %d, outside 1..%d", name, k, trace.CallKinds-1)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share kind %d", prev, name, k)
		}
		seen[k] = name
		tm.ObserveCall(int(k), c.CallName(), 0, 1)
	}
	snap := tm.Snapshot()
	for name, values := range wireCalls {
		if key := trace.CallFamily.Key + values[0].CallName(); name != "WithSpan" && snap[key].Count != 1 {
			t.Errorf("%s: histogram %q counted %d calls, want 1", name, key, snap[key].Count)
		}
	}
	if KindOf(nil) != 0 || KindOf(WithSpan{}) != 0 || KindOf(WithSpan{Call: WithSpan{Call: SynchronizeCall{}}}) != 0 {
		t.Error("a call without a wire form has a kind")
	}
}

// TestWirePointerForms checks the two forms of every call: the value
// and pointer forms encode to the same bytes, DecodeCall hands back the
// pointer form (a WithSpan around one), KindOf names pointer forms only,
// and Lift leaves a pointer form as it is.
func TestWirePointerForms(t *testing.T) {
	for name, values := range wireCalls {
		for _, c := range values {
			p := Lift(c)
			if name != "WithSpan" {
				if reflect.TypeOf(p).Kind() != reflect.Pointer || KindOf(c) != 0 {
					t.Errorf("%s: Lift gave %T, KindOf of the value form %d", name, p, KindOf(c))
				}
				if again := Lift(p); again != p {
					t.Errorf("%s: Lift of the pointer form is not the pointer form", name)
				}
			}
			kv, pv, bv := encodeCall(t, c)
			kp, pp, bp := encodeCall(t, p)
			if kv != kp || pv != pp || !bytes.Equal(bv, bp) {
				t.Errorf("%s: %#v and its pointer form encode differently", name, c)
			}
			got, err := DecodeCall(kp, pp, bp, false)
			if w, ok := got.(WithSpan); ok {
				got = w.Call
			}
			if err != nil || reflect.TypeOf(got).Kind() != reflect.Pointer {
				t.Errorf("%s: decoded to %T, %v, want a pointer form", name, got, err)
			}
		}
	}
}
