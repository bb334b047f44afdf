package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
)

// echoServe answers every call with a canned reply derived from it.
func echoServe(t *testing.T, s ServerConn) {
	t.Helper()
	for {
		call, err := s.Recv()
		if err != nil {
			return
		}
		var r api.Reply
		switch c := api.Lift(call).(type) {
		case *api.MallocCall:
			r = api.Reply{Ptr: api.DevPtr(c.Size)}
		case *api.MemcpyDHCall:
			r = api.Reply{Data: make([]byte, c.Size)}
		case *api.GetDeviceCountCall:
			r = api.Reply{Count: 4}
		default:
			r = api.Reply{Code: api.ErrInvalidValue}
		}
		if err := s.Reply(r); err != nil {
			return
		}
	}
}

func testConnBehaviour(t *testing.T, c Conn, s ServerConn) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); echoServe(t, s) }()

	r, err := c.Call(api.MallocCall{Size: 123})
	if err != nil {
		t.Fatalf("Call(Malloc): %v", err)
	}
	if r.Ptr != 123 {
		t.Errorf("Malloc reply Ptr = %d, want 123", r.Ptr)
	}
	r, err = c.Call(api.MemcpyDHCall{Size: 9})
	if err != nil || len(r.Data) != 9 {
		t.Errorf("MemcpyDH reply = %+v, %v", r, err)
	}
	r, err = c.Call(api.GetDeviceCountCall{})
	if err != nil || r.Count != 4 {
		t.Errorf("GetDeviceCount reply = %+v, %v", r, err)
	}
	r, err = c.Call(api.SynchronizeCall{})
	if err != nil || r.Code != api.ErrInvalidValue {
		t.Errorf("default reply = %+v, %v", r, err)
	}

	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()

	if _, err := c.Call(api.SynchronizeCall{}); err == nil {
		t.Error("Call on closed conn should fail")
	}
}

func TestPipeConn(t *testing.T) {
	c, s := Pipe()
	testConnBehaviour(t, c, s)
}

func TestTCPConn(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	srvErr := make(chan error, 1)
	var srv ServerConn
	accepted := make(chan struct{})
	go func() {
		s, err := l.Accept()
		if err != nil {
			srvErr <- err
			close(accepted)
			return
		}
		srv = s
		close(accepted)
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	select {
	case err := <-srvErr:
		t.Fatal(err)
	default:
	}
	testConnBehaviour(t, c, srv)
}

func TestPipeServerCloseUnblocksClient(t *testing.T) {
	c, s := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(api.SynchronizeCall{})
		done <- err
	}()
	// Give the client a moment to park in Call, then slam the door.
	call, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if call.CallName() != "cudaDeviceSynchronize" {
		t.Errorf("recv = %s", call.CallName())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("client err = %v, want ErrClosed", err)
	}
	if _, err := s.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after Close err = %v, want ErrClosed", err)
	}
}

func TestTCPClientCloseUnblocksServer(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := Dial(l.Addr())
		if err != nil {
			return
		}
		c.Close()
	}()
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv on closed client err = %v, want ErrClosed", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		for {
			call, err := s.Recv()
			if err != nil {
				return
			}
			hd := api.Lift(call).(*api.MemcpyHDCall)
			if err := s.Reply(api.Reply{Data: hd.Data}); err != nil {
				return
			}
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	r, err := c.Call(api.MemcpyHDCall{Dst: 1, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != len(payload) || r.Data[12345] != payload[12345] {
		t.Error("large payload mangled in transit")
	}
}

func TestPipeManySequentialCalls(t *testing.T) {
	c, s := Pipe()
	go echoServe(t, s)
	defer c.Close()
	for i := 0; i < 1000; i++ {
		r, err := c.Call(api.MallocCall{Size: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if r.Ptr != api.DevPtr(i) {
			t.Fatalf("call %d: Ptr = %d", i, r.Ptr)
		}
	}
}

// TestPipeCloseStorm races Close from a third goroutine against a live
// call stream: every Call, Recv and Reply must return a value or
// ErrClosed, and none may stay blocked once the pipe is closed.
func TestPipeCloseStorm(t *testing.T) {
	closeStorm(t, func(s ServerConn) {
		for {
			call, err := s.Recv()
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Recv err = %v, want ErrClosed", err)
				}
				return
			}
			m := api.Lift(call).(*api.MallocCall)
			if err := s.Reply(api.Reply{Ptr: api.DevPtr(m.Size)}); err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Reply err = %v, want ErrClosed", err)
				}
				return
			}
		}
	})
}

// closeStorm runs rounds of a client calling Malloc in a loop on a
// pipe served by server, while a third goroutine closes one end.
func closeStorm(t *testing.T, server func(ServerConn)) {
	for round := 0; round < 200; round++ {
		c, s := Pipe()
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			server(s)
		}()
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				r, err := c.Call(api.MallocCall{Size: uint64(i)})
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Call err = %v, want ErrClosed", err)
					}
					return
				}
				if r.Ptr != api.DevPtr(i) {
					t.Errorf("call %d: Ptr = %d", i, r.Ptr)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < round%64; i++ {
				runtime.Gosched()
			}
			if round%2 == 0 {
				c.Close()
			} else {
				s.Close()
			}
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: an operation stayed blocked after Close", round)
		}
	}
}

// TestPipeHoldsNoDeliveredValue checks that the pipe keeps no reference
// to a call or reply once the other side has taken it, so it never pins
// a caller's buffers between calls.
func TestPipeHoldsNoDeliveredValue(t *testing.T) {
	c, s := Pipe()
	defer c.Close()
	go echoServe(t, s)
	r, err := c.Call(api.MemcpyDHCall{Size: 64})
	if err != nil || len(r.Data) != 64 {
		t.Fatalf("reply = %+v, %v", r, err)
	}
	p := (*pipe)(c.(*pipeClient))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.call != nil {
		t.Errorf("pipe still holds the delivered call %#v", p.call)
	}
	if p.reply.Data != nil {
		t.Error("pipe still holds the delivered reply's data")
	}
}
