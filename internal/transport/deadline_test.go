package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
)

// testScale keeps deadline waits to microseconds of wall time.
const deadlineTestScale = 1e-6

func TestDeadlineFastCallUnaffected(t *testing.T) {
	clock := sim.NewClock(deadlineTestScale)
	c, s := Pipe()
	dc := WithDeadline(c, clock, time.Hour)
	go func() {
		call, err := s.Recv()
		if err != nil {
			return
		}
		if _, ok := call.(api.PingCall); !ok {
			t.Errorf("server received %T, want SyncCall", call)
		}
		_ = s.Reply(api.Reply{})
	}()
	r, err := dc.Call(api.PingCall{})
	if err != nil {
		t.Fatalf("fast call failed under a generous deadline: %v", err)
	}
	if r.Code != api.Success {
		t.Fatalf("reply code = %v, want success", r.Code)
	}
}

func TestDeadlineExpiryTearsConnDown(t *testing.T) {
	clock := sim.NewClock(deadlineTestScale)
	c, s := Pipe()
	dc := WithDeadline(c, clock, 50*time.Millisecond)

	// A server that receives the call and then never replies: the model
	// of a partitioned or wedged peer.
	served := make(chan struct{})
	go func() {
		_, _ = s.Recv()
		close(served)
		// no Reply — ever
	}()

	_, err := dc.Call(api.PingCall{})
	if api.Code(err) != api.ErrDeadlineExceeded {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	<-served

	// Expiry must have closed the underlying connection (socket-timeout
	// semantics): the stream cannot be reused out of sync.
	if _, err := c.Call(api.PingCall{}); err == nil {
		t.Fatal("underlying conn still usable after deadline expiry")
	}
	if err := s.Reply(api.Reply{}); err == nil {
		t.Fatal("server side still usable after deadline expiry")
	}
}

func TestDeadlineDisabled(t *testing.T) {
	c, _ := Pipe()
	if got := WithDeadline(c, nil, time.Second); got != c {
		t.Fatal("nil clock should return the conn unchanged")
	}
	if got := WithDeadline(c, sim.NewClock(deadlineTestScale), 0); got != c {
		t.Fatal("non-positive deadline should return the conn unchanged")
	}
}

// TestDeadlineTearsDownHungTCPCall: the same expiry over a socket. The
// peer accepts and never replies, so the Call in flight is blocked in a
// read while holding the connection's mutex; tearing it down must not
// wait for that mutex.
func TestDeadlineTearsDownHungTCPCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		peer, _ := l.Accept() // held open, never read, never answered
		accepted <- peer
	}()
	defer func() {
		if peer := <-accepted; peer != nil {
			peer.Close()
		}
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	dc := WithDeadline(c, sim.NewClock(deadlineTestScale), 50*time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, err := dc.Call(api.PingCall{})
		done <- err
	}()
	select {
	case err := <-done:
		if api.Code(err) != api.ErrDeadlineExceeded {
			t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline expiry never returned: Close is waiting for the mutex the hung Call holds")
	}
	if _, err := dc.Call(api.PingCall{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after teardown: err = %v, want ErrClosed", err)
	}
}
