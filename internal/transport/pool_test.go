package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"gvrt/internal/api"
)

// TestPooledWireAfterRacingClose: a Close that races a Call blocked
// half way through a reply gives the wire back only once the Call has
// let go, and the connection that takes it next reads only its own
// bytes — none of the torn reply left in the reader. Run under -race.
func TestPooledWireAfterRacingClose(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the wire put back is the next one taken
	reply := replyFrame(t, 1, api.Reply{Data: bytes.Repeat([]byte{0xEE}, 100)})
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		a, peer := net.Pipe()
		old := NewClientConn(a).(*tcpConn)
		stale := old.w
		torn := make(chan struct{})
		go func() {
			// Take the call, then answer with a header and a few bytes of
			// a body that never arrives.
			if _, err := io.ReadFull(peer, make([]byte, headerLen)); err != nil {
				return
			}
			_, _ = peer.Write(reply[:headerLen+10])
			close(torn)
		}()
		failed := make(chan error, 1)
		go func() {
			_, err := old.Call(api.SynchronizeCall{})
			failed <- err
		}()
		<-torn
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-failed; err == nil {
			t.Fatal("a Call whose connection closed mid-reply succeeded")
		}
		peer.Close()

		cc, sc := net.Pipe()
		client, server := NewClientConn(cc), NewServerConn(sc)
		reused = client.(*tcpConn).w == stale
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
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
		for i := 0; i < 3; i++ {
			want := bytes.Repeat([]byte{byte(i)}, 40)
			r, err := client.Call(api.MemcpyHDCall{Dst: 1, Data: want})
			if err != nil || !bytes.Equal(r.Data, want) {
				t.Fatalf("call %d on the next connection: %v, %x", i, err, r.Data)
			}
		}
		client.Close()
		<-done
	}
	if !reused {
		t.Fatal("no connection took the closed connection's wire from the pool")
	}
}

// TestClosedConnReturnsErrClosed: after Close, every operation on either
// side reports ErrClosed, a second Close does not put the wire back a
// second time, and a Close racing a blocked Recv lets it go.
func TestClosedConnReturnsErrClosed(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewClientConn(a), NewServerConn(b)
	recvd := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		recvd <- err
	}()
	server.Close()
	if err := <-recvd; !errors.Is(err, ErrClosed) {
		t.Errorf("Recv blocked across Close = %v, want ErrClosed", err)
	}
	client.Close()
	client.Close()
	server.Close()
	if _, err := client.Call(api.SynchronizeCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close = %v, want ErrClosed", err)
	}
	if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after Close = %v, want ErrClosed", err)
	}
	if err := server.Reply(api.Reply{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Reply after Close = %v, want ErrClosed", err)
	}
	x, y := NewClientConn(a).(*tcpConn), NewClientConn(b).(*tcpConn)
	if x.w == y.w {
		t.Error("two open connections share one pooled wire")
	}
}
