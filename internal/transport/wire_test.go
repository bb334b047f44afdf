package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gvrt/internal/api"
)

// memConn is a net.Conn over memory: reads come from in, writes go to
// out and are counted.
type memConn struct {
	in     *bytes.Reader
	out    bytes.Buffer
	writes int
	closed bool
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.in == nil {
		return 0, io.EOF
	}
	return m.in.Read(p)
}
func (m *memConn) Write(p []byte) (int, error)      { m.writes++; return m.out.Write(p) }
func (m *memConn) Close() error                     { m.closed = true; return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// TestGoldenFrames pins the byte layout of one call and one reply. A
// change here is a wire-protocol change: bump wireVersion and update
// DESIGN.md "Wire format" with it.
func TestGoldenFrames(t *testing.T) {
	call := api.LaunchCall{
		Kernel:   "spin",
		Grid:     api.Dim3{X: 32, Y: 1, Z: 1},
		Block:    api.Dim3{X: 128, Y: 2, Z: 3},
		PtrArgs:  []api.DevPtr{0x8000010000000000, 0x8000010000100000},
		Scalars:  []uint64{7},
		Repeat:   4,
		ReadOnly: []bool{true, false},
	}
	wantCall := "" +
		"4e000000" + "01" + "88" + "0900000000000000" + "2a00000000000000" + // len 78, v1, Launch|Span, seq 9, parent 42
		"20000000" + "01000000" + "01000000" + // grid
		"80000000" + "02000000" + "03000000" + // block
		"0400000000000000" + // repeat
		"04000000" + "7370696e" + // kernel "spin"
		"02000000" + "0000000000010080" + "0000100000010080" + // ptr args
		"01000000" + "0700000000000000" + // scalars
		"02000000" + "01" + "00" // read-only flags
	if got := hex.EncodeToString(callFrame(t, 9, api.WithSpan{Parent: 42, Call: call})); got != wantCall {
		t.Errorf("LaunchCall frame:\n got  %s\n want %s", got, wantCall)
	}
	reply := api.Reply{Code: api.ErrInvalidValue, Ptr: 0x1000, Data: []byte{0xDE, 0xAD}, Count: 3, ID: -2}
	wantReply := "" +
		"23000000" + "01" + "40" + "0900000000000000" + "0000000000000000" + // len 35, v1, Reply, seq 9, no parent
		"0200000000000000" + // code
		"0010000000000000" + // ptr
		"0300000000000000" + // count
		"feffffffffffffff" + // id
		"01" + "dead" // data present, data
	if got := hex.EncodeToString(replyFrame(t, 9, reply)); got != wantReply {
		t.Errorf("Reply frame:\n got  %s\n want %s", got, wantReply)
	}
}

// countingConn counts the Writes that reach a net.Conn.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) { c.writes++; return c.Conn.Write(p) }

// TestOneWritePerFrame: a frame leaves in one Write — header and body
// are assembled first — and a frame with a payload in at most two, the
// payload going out uncopied (one writev on a real socket).
func TestOneWritePerFrame(t *testing.T) {
	a, b := net.Pipe()
	cc, sc := &countingConn{Conn: a}, &countingConn{Conn: b}
	client, server := NewClientConn(cc), NewServerConn(sc)
	defer client.Close()
	go func() {
		for {
			call, err := server.Recv()
			if err != nil {
				return
			}
			var r api.Reply
			if dh, ok := api.Lift(call).(*api.MemcpyDHCall); ok {
				r.Data = make([]byte, dh.Size)
			}
			if server.Reply(r) != nil {
				return
			}
		}
	}()
	for _, tc := range []struct {
		call                 api.Call
		maxCall, maxReply    int
		exactCall, exactRepl bool
	}{
		{api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{1, 2}}, 1, 1, true, true},
		{api.MemcpyHDCall{Dst: 1, Size: 1 << 20}, 1, 1, true, true},
		{api.ExitCall{}, 1, 1, true, true},
		{api.MemcpyHDCall{Dst: 1, Data: make([]byte, 100)}, 2, 1, false, true},
		{api.MemcpyHDCall{Dst: 1, Data: make([]byte, 3*readBuf)}, 2, 1, false, true},
		{api.MemcpyDHCall{Src: 1, Size: 3 * readBuf}, 1, 2, true, false},
	} {
		cc.writes, sc.writes = 0, 0
		if _, err := client.Call(tc.call); err != nil {
			t.Fatalf("%T: %v", tc.call, err)
		}
		if cc.writes > tc.maxCall || (tc.exactCall && cc.writes != tc.maxCall) {
			t.Errorf("%T: call took %d Writes, want %d", tc.call, cc.writes, tc.maxCall)
		}
		if sc.writes > tc.maxReply || (tc.exactRepl && sc.writes != tc.maxReply) {
			t.Errorf("%T: reply took %d Writes, want %d", tc.call, sc.writes, tc.maxReply)
		}
	}
}

// TestPayloadSizesOverPipe carries payloads on both sides of every
// size boundary of the reader — in the read buffer, just past it, past
// one readChunk — through an unbuffered net.Pipe, in both directions.
func TestPayloadSizesOverPipe(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewClientConn(a), NewServerConn(b)
	defer client.Close()
	go func() {
		for {
			call, err := server.Recv()
			if err != nil {
				return
			}
			if server.Reply(api.Reply{Data: api.Lift(call).(*api.MemcpyHDCall).Data}) != nil {
				return
			}
		}
	}()
	for _, n := range []int{0, 1, readBuf - headerLen - 17, readBuf - headerLen - 16, readBuf, readChunk, 2*readChunk + 5} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		r, err := client.Call(api.MemcpyHDCall{Dst: 1, Data: payload})
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if r.Data == nil || !bytes.Equal(r.Data, payload) {
			t.Errorf("%d-byte payload came back as %d bytes (nil=%v)", n, len(r.Data), r.Data == nil)
		}
	}
}

// TestMalformedFrameEndsConnection: whatever a peer sends that is not a
// well-formed call gets a closed connection and an error — never a nil
// call, never a hang.
func TestMalformedFrameEndsConnection(t *testing.T) {
	good := callFrame(t, 1, api.MallocCall{Size: 8})
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, data := range map[string][]byte{
		"kind 0":             mutate(func(b []byte) []byte { b[5] = 0; return b }),
		"unassigned kind":    mutate(func(b []byte) []byte { b[5] = byte(api.KindStats) + 1; return b }),
		"reply kind":         mutate(func(b []byte) []byte { b[5] = byte(api.KindReply); return b }),
		"span around kind 0": mutate(func(b []byte) []byte { b[5] = byte(api.KindSpan); return b }),
		"stray span parent":  mutate(func(b []byte) []byte { b[14] = 1; return b }),
		"other version":      mutate(func(b []byte) []byte { b[4] = wireVersion + 1; return b }),
		"over the cap":       mutate(func(b []byte) []byte { le.PutUint32(b, MaxFrame+1); return b }),
		"trailing byte":      mutate(func(b []byte) []byte { le.PutUint32(b, le.Uint32(b)+1); return append(b, 0) }),
		"short body":         mutate(func(b []byte) []byte { le.PutUint32(b, le.Uint32(b)-1); return b[:len(b)-1] }),
		"torn header":        good[:headerLen-1],
		"torn body":          good[:len(good)-1],
		"cap, then EOF":      mutate(func(b []byte) []byte { le.PutUint32(b, MaxFrame); return b[:headerLen] }),
	} {
		in := &memConn{in: bytes.NewReader(data)}
		call, err := NewServerConn(in).Recv()
		if call != nil || !errors.Is(err, ErrClosed) || !in.closed {
			t.Errorf("%s: Recv = %#v, %v; connection closed: %v", name, call, err, in.closed)
		}
	}
}

// TestLyingHeaderCommitsOneChunk: a header announcing the largest frame
// there is, backed by nothing, costs the receiver one readChunk — not
// MaxFrame.
func TestLyingHeaderCommitsOneChunk(t *testing.T) {
	hdr := callFrame(t, 1, api.MemcpyHDCall{})[:headerLen]
	le.PutUint32(hdr, MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewServerConn(&memConn{in: bytes.NewReader(hdr)}).Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv = %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > readChunk+64<<10 {
		t.Errorf("a %d-byte header made the reader allocate %d bytes", headerLen, grew)
	}
}

// TestClientRejectsBadReply: a reply of the wrong kind or for another
// call kills the connection; a call with no wire form is never written.
func TestClientRejectsBadReply(t *testing.T) {
	trailing := append(replyFrame(t, 1, api.Reply{}), 0)
	le.PutUint32(trailing, le.Uint32(trailing)+1)
	spanned := replyFrame(t, 1, api.Reply{})
	spanned[14] = 1
	for name, reply := range map[string][]byte{
		"stray span parent": spanned,
		"sequence mismatch": replyFrame(t, 2, api.Reply{}),
		"a call":            callFrame(t, 1, api.ExitCall{}),
		"trailing byte":     trailing,
	} {
		in := &memConn{in: bytes.NewReader(reply)}
		c := NewClientConn(in)
		if _, err := c.Call(api.ExitCall{}); err == nil || errors.Is(err, ErrClosed) {
			t.Errorf("%s: first Call = %v, want a recv error", name, err)
		}
		if _, err := c.Call(api.ExitCall{}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Call after a bad reply = %v, want ErrClosed", name, err)
		}
	}
	for _, bad := range []api.Call{nil, api.WithSpan{Parent: 1}, api.WithSpan{Call: api.WithSpan{Call: api.ExitCall{}}}} {
		var out memConn
		c := NewClientConn(&out)
		if _, err := c.Call(bad); err == nil || !strings.Contains(err.Error(), "no wire form") || out.writes != 0 {
			t.Errorf("Call(%#v) = %v after %d writes", bad, err, out.writes)
		}
	}
}
