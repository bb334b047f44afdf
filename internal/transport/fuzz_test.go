package transport

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"gvrt/internal/api"
)

// everyCall is one value of every call kind (and the span flag on two
// of them): the fuzzers' seed corpus.
var everyCall = []api.Call{
	api.RegisterFatBinaryCall{Binary: api.FatBinary{
		ID:      "fuzz-bin",
		Kernels: []api.KernelMeta{{Name: "inc", BaseTime: time.Millisecond, UsesNestedPointers: true, PTX: "ld.global.u64"}},
	}},
	api.MallocCall{Size: 123, Kind: api.AllocPitched},
	api.FreeCall{Ptr: 42},
	api.MemsetCall{Dst: 7, Value: 0xAB, Size: 64},
	api.MemcpyHDCall{Dst: 1, Data: []byte{1, 2, 3, 4, 5}, Size: 5},
	api.MemcpyDHCall{Src: 9, Size: 9},
	api.MemcpyDDCall{Dst: 3, Src: 4, Size: 16},
	api.LaunchCall{
		Kernel:   "inc",
		Grid:     api.Dim3{X: 4, Y: 1, Z: 1},
		Block:    api.Dim3{X: 256, Y: 1, Z: 1},
		PtrArgs:  []api.DevPtr{1, 2},
		Scalars:  []uint64{99},
		Repeat:   3,
		ReadOnly: []bool{true, false},
	},
	api.SetDeviceCall{Device: 1},
	api.GetDeviceCountCall{},
	api.SynchronizeCall{},
	api.RegisterNestedCall{Parent: 1, Members: []api.DevPtr{2}, Offsets: []uint64{8}},
	api.SetAppIDCall{AppID: "app-0"},
	api.SetTenantCall{Tenant: "t0"},
	api.GetSessionCall{},
	api.ResumeCall{ID: 5},
	api.CheckpointCall{},
	api.MigrateCall{Target: "127.0.0.1:1"},
	api.MigrateFrameCall{Frame: []byte("frame")},
	api.AdoptCall{Dir: "/j"},
	api.ExitCall{},
	api.StatsCall{},
	api.WithSpan{Parent: 77, Call: api.MallocCall{Size: 1}},
	// Too big for the read buffer: takes the frame-owns-its-buffer path.
	api.WithSpan{Parent: 78, Call: api.MemcpyHDCall{Dst: 2, Data: bytes.Repeat([]byte{0x5A}, 2*readBuf)}},
	api.MemcpyHDCall{Dst: 3, Size: 1 << 30}, // synthetic: no payload
}

// callFrame returns the bytes sendCall puts on the wire.
func callFrame(t testing.TB, seq uint64, call api.Call) []byte {
	t.Helper()
	var out memConn
	w := newWire(&out)
	if err := w.sendCall(seq, call); err != nil {
		t.Fatalf("encode %#v: %v", call, err)
	}
	return out.out.Bytes()
}

func replyFrame(t testing.TB, seq uint64, r api.Reply) []byte {
	t.Helper()
	var out memConn
	w := newWire(&out)
	if err := w.sendReply(seq, r, false); err != nil {
		t.Fatalf("encode %+v: %v", r, err)
	}
	return out.out.Bytes()
}

// consumed reports how many of in's bytes w has taken as frames.
func consumed(in *memConn, total int, w *wire) int {
	return total - in.in.Len() - (w.br.Buffered() - w.held)
}

// malformedSeeds start the fuzzers on the failure side of the boundary
// too.
var malformedSeeds = [][]byte{
	{},
	{0xFF, 0x00, 0x01},
	bytes.Repeat([]byte{0x7F}, 64),
	append([]byte{0, 0, 0, 0x10, wireVersion, byte(api.KindMemcpyHD)}, make([]byte, 16)...), // MaxFrame, then EOF
	append([]byte{0, 0, 0, 0, wireVersion, byte(api.KindSpan)}, make([]byte, 16)...),        // span around nothing
	append([]byte{8, 0, 0, 0, wireVersion, 15, 1}, make([]byte, 7+8+8)...),                  // reserved kind 15, 8-byte body
	append([]byte{0, 0, 0, 0, wireVersion, 19, 1}, make([]byte, 7+8)...),                    // reserved kind 19, empty body
}

// FuzzDecodeCall feeds arbitrary bytes to the server side of a
// connection. The invariant is the one Recv promises and core relies
// on: the bytes are either rejected cleanly, or accepted as a non-nil
// call that re-encodes to exactly the bytes consumed — so nothing a
// peer can send has two readings, and nothing decodes to a value the
// encoder could not have produced.
func FuzzDecodeCall(f *testing.F) {
	seen := map[api.Kind]bool{}
	for i, call := range everyCall {
		frame := callFrame(f, uint64(i+1), call)
		seen[api.Kind(frame[5])&^api.KindSpan] = true
		f.Add(frame)
	}
	for k := api.Kind(1); k <= api.KindStats; k++ {
		if !seen[k] && k != 15 && k != 19 { // reserved: no call has them
			f.Fatalf("no seed for call kind %d", k)
		}
	}
	for _, b := range malformedSeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &memConn{in: bytes.NewReader(data)}
		srv := NewServerConn(in).(*tcpServerConn)
		call, err := srv.Recv()
		if err != nil {
			if call != nil {
				t.Fatalf("Recv returned both %#v and %v", call, err)
			}
			if !in.closed {
				t.Fatal("a rejected frame left the connection open")
			}
			return
		}
		if call == nil {
			t.Fatal("Recv returned neither a call nor an error")
		}
		if w, ok := call.(api.WithSpan); ok {
			if _, nested := w.Call.(api.WithSpan); w.Call == nil || nested {
				t.Fatalf("decoded %#v", call)
			}
		}
		_ = call.CallName()
		used := data[:consumed(in, len(data), srv.w)]
		if again := callFrame(t, srv.lastSeq, call); !bytes.Equal(again, used) {
			t.Fatalf("%#v was decoded from\n  %x\nbut encodes as\n  %x", call, used, again)
		}
	})
}

// FuzzDecodeReply is FuzzDecodeCall for the client side: arbitrary
// bytes where a reply is due.
func FuzzDecodeReply(f *testing.F) {
	for i, r := range []api.Reply{
		{},
		{Code: api.ErrInvalidValue, Ptr: 0x42, Count: 4, ID: -7},
		{Data: []byte{}},
		{Data: []byte{1, 2, 3}},
		{Data: bytes.Repeat([]byte{0xA5}, 2*readBuf)},
	} {
		f.Add(replyFrame(f, uint64(i), r))
	}
	f.Add(callFrame(f, 1, api.ExitCall{})) // a call where a reply is due
	for _, b := range malformedSeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &memConn{in: bytes.NewReader(data)}
		cl := NewClientConn(in).(*tcpConn)
		if len(data) >= headerLen {
			cl.seq = le.Uint64(data[6:]) // the call this pretends to answer
		}
		reply, err := cl.recvReply()
		if err != nil {
			if !reflect.DeepEqual(reply, api.Reply{}) {
				t.Fatalf("recvReply returned both %+v and %v", reply, err)
			}
			return
		}
		used := data[:consumed(in, len(data), cl.w)]
		if again := replyFrame(t, cl.seq, reply); !bytes.Equal(again, used) {
			t.Fatalf("%+v was decoded from\n  %x\nbut encodes as\n  %x", reply, used, again)
		}
	})
}

// memoSeeds are frame sequences that each hold a near miss for the
// memo: the same frame again after one that differs from it only in one
// body byte, in the span parent, in the span flag, or in fitting the
// read buffer.
func memoSeeds(t testing.TB) [][]byte {
	frames := func(calls ...api.Call) []byte {
		var b []byte
		for i, c := range calls {
			b = append(b, callFrame(t, uint64(i+1), c)...)
		}
		return b
	}
	malloc := api.MallocCall{Size: 8}
	flipped := callFrame(t, 2, malloc)
	flipped[headerLen] ^= 1
	launch := api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{1, 2}}
	fits := api.MemcpyHDCall{Dst: 1, Data: bytes.Repeat([]byte{7}, readBuf-headerLen-17)}
	over := api.MemcpyHDCall{Dst: 1, Data: bytes.Repeat([]byte{7}, readBuf-headerLen-16)}
	return [][]byte{
		append(append(callFrame(t, 1, malloc), flipped...), callFrame(t, 3, malloc)...),
		frames(api.WithSpan{Parent: 1, Call: launch}, api.WithSpan{Parent: 2, Call: launch}, api.WithSpan{Parent: 1, Call: launch}),
		frames(malloc, api.WithSpan{Call: malloc}, malloc, api.WithSpan{Parent: 1, Call: malloc}),
		frames(fits, fits, over, over, fits),
		frames(append(everyCall, everyCall...)...),
	}
}

// FuzzMemoMatchesDecode feeds one server connection a sequence of
// frames. Whatever Recv returns, from the memo or not, must equal a
// fresh api.DecodeCall of the frame it came from, and the memo must
// never hold a frame that did not fit the read buffer.
func FuzzMemoMatchesDecode(f *testing.F) {
	for _, b := range memoSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &memConn{in: bytes.NewReader(data)}
		srv := NewServerConn(in).(*tcpServerConn)
		w := srv.w
		for start := 0; ; {
			call, err := srv.Recv()
			if err != nil {
				return
			}
			end := consumed(in, len(data), w)
			fr := data[start:end]
			want, err := api.DecodeCall(api.Kind(fr[5]), le.Uint64(fr[14:]), fr[headerLen:], false)
			if err != nil || !reflect.DeepEqual(call, want) {
				t.Fatalf("frame %x: Recv returned %#v, a fresh decode %#v (%v)", fr, call, want, err)
			}
			for _, e := range w.memo {
				if e.call != nil && headerLen+len(e.body) > readBuf {
					t.Fatalf("memo holds a %d-byte body, past the %d-byte read buffer", len(e.body), readBuf)
				}
			}
			start = end
		}
	})
}
