package transport

import (
	"errors"
	"sync"
	"testing"

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
		switch c := call.(type) {
		case api.MallocCall:
			r = api.Reply{Ptr: api.DevPtr(c.Size)}
		case api.MemcpyDHCall:
			r = api.Reply{Data: make([]byte, c.Size)}
		case api.GetDeviceCountCall:
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
			hd := call.(api.MemcpyHDCall)
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
