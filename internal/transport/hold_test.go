package transport

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gvrt/internal/api"
)

// rawPeer is a client that writes frames to a Serve loop as it likes —
// a burst in one Write, half a frame — and reads the replies with a
// client wire. The server's Writes are counted.
type rawPeer struct {
	c      net.Conn
	w      *wire
	sc     *countingConn
	served chan error
}

// rawServe starts Serve with h on one end of a net.Pipe and returns the
// other end as a rawPeer.
func rawServe(t *testing.T, h Handler) *rawPeer {
	t.Helper()
	a, b := net.Pipe()
	p := &rawPeer{c: a, w: newWire(a), sc: &countingConn{Conn: b}, served: make(chan error, 1)}
	go func() { p.served <- Serve(NewServerConn(p.sc), h) }()
	t.Cleanup(func() { _ = a.Close() })
	return p
}

// send writes data in one Write: the server's reader takes it whole.
func (p *rawPeer) send(t *testing.T, data []byte) {
	t.Helper()
	if _, err := p.c.Write(data); err != nil {
		t.Fatalf("write %d bytes: %v", len(data), err)
	}
}

// replies reads n replies and fails t unless they answer calls first,
// first+1, … in order. A reply the server holds back fails t after the
// read deadline instead of hanging it.
func (p *rawPeer) replies(t *testing.T, first uint64, n int) {
	t.Helper()
	_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		f, err := p.w.read()
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		if f.kind != api.KindReply || f.seq != first+uint64(i) {
			t.Fatalf("reply %d of %d: kind %d, seq %d; want a reply to call %d", i+1, n, f.kind, f.seq, first+uint64(i))
		}
	}
}

// closed fails t unless the server has closed the connection with
// nothing more written, and returns Serve's error.
func (p *rawPeer) closed(t *testing.T) error {
	t.Helper()
	_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := p.w.read(); err != io.EOF {
		t.Fatalf("after the last reply: frame (kind %d, seq %d), %v; want EOF", f.kind, f.seq, err)
	}
	return <-p.served
}

// frees is n posted FreeCall frames numbered from first.
func frees(t *testing.T, first uint64, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, callFrame(t, first+uint64(i), &api.FreeCall{Ptr: 1})...)
	}
	return b
}

// TestPostedBurstOneWrite: a burst of posted calls and the Call behind
// it, arriving together, are answered in one Write and in order. With
// the Call's frame still torn when the last post is answered, the posts'
// replies leave at once: the server holds a reply only while the next
// call is buffered whole.
func TestPostedBurstOneWrite(t *testing.T) {
	const n = 16
	call := callFrame(t, n+1, &api.MallocCall{Size: 8})
	t.Run("whole", func(t *testing.T) {
		p := rawServe(t, echoHandler)
		p.send(t, cat(frees(t, 1, n), call))
		p.replies(t, 1, n+1)
		p.c.Close()
		<-p.served
		if p.sc.writes != 1 {
			t.Errorf("%d posts and a call took %d Writes, want 1", n, p.sc.writes)
		}
	})
	t.Run("torn", func(t *testing.T) {
		p := rawServe(t, echoHandler)
		p.send(t, cat(frees(t, 1, n), call[:headerLen+3]))
		p.replies(t, 1, n)
		p.send(t, call[headerLen+3:])
		p.replies(t, n+1, 1)
		p.c.Close()
		<-p.served
		if p.sc.writes != 2 {
			t.Errorf("%d posts, then the rest of a call, took %d Writes, want 2", n, p.sc.writes)
		}
	})
}

// TestFailedReplyNotHeld: a reply that is not Success leaves at once,
// with the replies held before it, while the next buffered call is
// still being handled — the client learns of a failed post without
// waiting for whatever comes after it.
func TestFailedReplyNotHeld(t *testing.T) {
	release := make(chan struct{})
	p := rawServe(t, handlerFunc(func(call api.Call) (api.Reply, bool) {
		switch api.Lift(call).(type) {
		case *api.MemsetCall:
			return api.Reply{Code: api.ErrInvalidDevicePointer}, false
		case *api.SynchronizeCall:
			<-release
		}
		return api.Reply{}, false
	}))
	defer close(release)
	p.send(t, cat(frees(t, 1, 2), callFrame(t, 3, &api.MemsetCall{Dst: 1}), callFrame(t, 4, &api.SynchronizeCall{})))
	p.replies(t, 1, 3)
}

// TestHeldReplyFlushedOnEnd: a call that ends the connection with more
// calls buffered behind it still gets its reply, and so do the calls
// before it.
func TestHeldReplyFlushedOnEnd(t *testing.T) {
	p := rawServe(t, echoHandler)
	p.send(t, cat(frees(t, 1, 2), callFrame(t, 3, &api.ExitCall{}), frees(t, 4, 1)))
	p.replies(t, 1, 3)
	if err := p.closed(t); err != nil {
		t.Errorf("Serve = %v", err)
	}
}

// TestHeldReplyFlushedOnMalformedFrame: a malformed frame behind a burst
// closes the connection only after the calls before it are answered.
func TestHeldReplyFlushedOnMalformedFrame(t *testing.T) {
	bad := callFrame(t, 3, &api.FreeCall{Ptr: 1})
	bad[5] = byte(api.KindStats) + 1 // an unassigned kind, length intact
	p := rawServe(t, echoHandler)
	p.send(t, cat(frees(t, 1, 2), bad))
	p.replies(t, 1, 2)
	if err := p.closed(t); err != nil {
		t.Errorf("Serve = %v", err)
	}
}

// TestHeldReplyFlushedOnPanic: a handler that panics on a buffered call
// ends the connection only after the calls before it are answered.
func TestHeldReplyFlushedOnPanic(t *testing.T) {
	p := rawServe(t, handlerFunc(func(call api.Call) (api.Reply, bool) {
		if _, ok := api.Lift(call).(*api.SynchronizeCall); ok {
			panic("handler bug")
		}
		return api.Reply{}, false
	}))
	p.send(t, cat(frees(t, 1, 2), callFrame(t, 3, &api.SynchronizeCall{})))
	p.replies(t, 1, 2)
	if err := p.closed(t); err == nil || errors.Is(err, ErrClosed) {
		t.Errorf("Serve = %v, want the handler's panic", err)
	}
}
