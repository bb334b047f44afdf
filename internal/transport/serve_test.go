package transport

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
)

// handlerFunc adapts a function to Handler.
type handlerFunc func(api.Call) (api.Reply, bool)

func (f handlerFunc) Handle(c api.Call) (api.Reply, bool) { return f(c) }

// echoHandler answers a Malloc with its size as the pointer and ends
// the connection on Exit.
var echoHandler = handlerFunc(func(call api.Call) (api.Reply, bool) {
	call = api.Lift(call)
	if m, ok := call.(*api.MallocCall); ok {
		return api.Reply{Ptr: api.DevPtr(m.Size)}, false
	}
	_, exit := call.(*api.ExitCall)
	return api.Reply{}, exit
})

// inline reports whether the calling goroutine is a client running a
// handler inside its own Call.
func inline() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*pipeClient).Call"))
}

// serve runs Serve on its own goroutine and returns a channel closed
// when it has returned, once Serve has installed h or left.
func serve(s ServerConn, h Handler) chan struct{} {
	done := make(chan struct{})
	go func() { defer close(done); Serve(s, h) }()
	p := (*pipe)(s.(*pipeServer))
	await(p, func() bool { return p.h != nil || p.left })
	return done
}

// waitPending yields until the client has handed a call over.
func waitPending(p *pipe) { await(p, func() bool { return p.pending }) }

// await yields until cond, read under the pipe's lock, holds.
func await(p *pipe, cond func() bool) {
	p.mu.Lock()
	for !cond() {
		p.mu.Unlock()
		runtime.Gosched()
		p.mu.Lock()
	}
	p.mu.Unlock()
}

func TestServeOverPipe(t *testing.T) {
	c, s := Pipe()
	done := serve(s, echoHandler)
	for i := 0; i < 100; i++ {
		r, err := c.Call(api.MallocCall{Size: uint64(i)})
		if err != nil || r.Ptr != api.DevPtr(i) {
			t.Fatalf("call %d = %+v, %v", i, r, err)
		}
	}
	if _, err := c.Call(api.ExitCall{}); err != nil {
		t.Fatalf("Exit: %v", err)
	}
	<-done
	if _, err := c.Call(api.MallocCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Exit err = %v, want ErrClosed", err)
	}
}

// TestServeRunsCallHandedOverFirstInline: a call handed over before
// Serve installs its handler is served exactly once, on its caller's
// goroutine, and so is the next call.
func TestServeRunsCallHandedOverFirstInline(t *testing.T) {
	c, s := Pipe()
	var mu sync.Mutex
	var seen []bool // inline(), per handled call
	h := handlerFunc(func(call api.Call) (api.Reply, bool) {
		mu.Lock()
		seen = append(seen, inline())
		mu.Unlock()
		return echoHandler(call)
	})
	first := make(chan error, 1)
	go func() {
		r, err := c.Call(api.MallocCall{Size: 7})
		if err == nil && r.Ptr != 7 {
			err = errors.New("wrong reply")
		}
		first <- err
	}()
	waitPending((*pipe)(s.(*pipeServer)))
	done := serve(s, h)
	if err := <-first; err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := c.Call(api.MallocCall{Size: 8}); err != nil {
		t.Fatalf("second call: %v", err)
	}
	c.Close()
	<-done
	if len(seen) != 2 || !seen[0] || !seen[1] {
		t.Fatalf("calls handled inline = %v, want [true true]", seen)
	}
}

// TestRecvTakesCallHandedOverFirst: a Recv/Reply server receives and
// answers a call handed over before its first Recv.
func TestRecvTakesCallHandedOverFirst(t *testing.T) {
	c, s := Pipe()
	defer c.Close()
	first := make(chan error, 1)
	go func() {
		r, err := c.Call(api.MallocCall{Size: 7})
		if err == nil && r.Ptr != 7 {
			err = errors.New("wrong reply")
		}
		first <- err
	}()
	waitPending((*pipe)(s.(*pipeServer)))
	call, err := s.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m, ok := api.Lift(call).(*api.MallocCall); !ok || m.Size != 7 {
		t.Fatalf("Recv = %#v, want the handed-over Malloc", call)
	}
	if err := s.Reply(api.Reply{Ptr: 7}); err != nil {
		t.Fatalf("Reply: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first call: %v", err)
	}
}

// TestServeNeverRunsCallClosedBeforeIt: a Close while the first call
// waits for Serve fails that call with ErrClosed, and Serve then returns
// without running the handler.
func TestServeNeverRunsCallClosedBeforeIt(t *testing.T) {
	for _, side := range []string{"client", "server"} {
		t.Run(side, func(t *testing.T) {
			c, s := Pipe()
			errc := make(chan error, 1)
			go func() { _, err := c.Call(api.MallocCall{}); errc <- err }()
			waitPending((*pipe)(s.(*pipeServer)))
			if side == "client" {
				c.Close()
			} else {
				s.Close()
			}
			if err := <-errc; !errors.Is(err, ErrClosed) {
				t.Errorf("client err = %v, want ErrClosed", err)
			}
			ran := false
			<-serve(s, handlerFunc(func(call api.Call) (api.Reply, bool) {
				ran = true
				return api.Reply{}, false
			}))
			if ran {
				t.Error("Serve ran a call handed over before the close")
			}
		})
	}
}

// TestServeHoldsNoPipeLockInHandler: the pipe's lock is free while a
// handler runs, for a call handed over before Serve and a later one
// alike.
func TestServeHoldsNoPipeLockInHandler(t *testing.T) {
	c, s := Pipe()
	p := (*pipe)(s.(*pipeServer))
	h := handlerFunc(func(call api.Call) (api.Reply, bool) {
		free := make(chan struct{})
		go func() { p.mu.Lock(); p.mu.Unlock(); close(free) }()
		select {
		case <-free:
		case <-time.After(10 * time.Second):
			t.Errorf("pipe lock held across Handle(%s), inline %v", call.CallName(), inline())
		}
		return echoHandler(call)
	})
	first := make(chan struct{})
	go func() { defer close(first); _, _ = c.Call(api.MallocCall{}) }()
	waitPending(p)
	done := serve(s, h)
	<-first
	if _, err := c.Call(api.ExitCall{}); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestServeWaitsForInlineCall: Close during an inline call fails that
// call with ErrClosed, and Serve does not return while the handler is
// still running.
func TestServeWaitsForInlineCall(t *testing.T) {
	for _, side := range []string{"client", "server"} {
		t.Run(side, func(t *testing.T) {
			c, s := Pipe()
			entered, release := make(chan struct{}), make(chan struct{})
			done := serve(s, handlerFunc(func(call api.Call) (api.Reply, bool) {
				close(entered)
				<-release
				return api.Reply{}, false
			}))
			errc := make(chan error, 1)
			go func() { _, err := c.Call(api.MallocCall{}); errc <- err }()
			<-entered
			if side == "client" {
				c.Close()
			} else {
				s.Close()
			}
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			select {
			case <-done:
				t.Fatal("Serve returned while a handler was running")
			default:
			}
			close(release)
			if err := <-errc; !errors.Is(err, ErrClosed) {
				t.Errorf("client err = %v, want ErrClosed", err)
			}
			<-done
		})
	}
}

// TestServeReturnsAfterHandlerPanic: a handler that panics inline closes
// the pipe on the way out, so Serve returns and its caller's teardown
// can run.
func TestServeReturnsAfterHandlerPanic(t *testing.T) {
	c, s := Pipe()
	done := serve(s, handlerFunc(func(call api.Call) (api.Reply, bool) {
		panic("handler bug")
	}))
	func() {
		defer func() {
			if r := recover(); r != "handler bug" {
				t.Errorf("recovered %v, want the handler's panic", r)
			}
		}()
		_, _ = c.Call(api.MallocCall{})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve still running after its handler panicked")
	}
	if _, err := c.Call(api.MallocCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after the panic err = %v, want ErrClosed", err)
	}
}

// TestServeEndingCallReturnsAfterServe: the call that ends the
// connection returns to its client only after Serve has left, whether
// it was handed over before Serve started or not.
func TestServeEndingCallReturnsAfterServe(t *testing.T) {
	for _, first := range []bool{false, true} {
		c, s := Pipe()
		p := (*pipe)(s.(*pipeServer))
		// exit reports whether Serve had left when the Exit returned.
		exit := func() bool {
			if _, err := c.Call(api.ExitCall{}); err != nil {
				t.Error(err)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.left
		}
		var left bool
		if first { // the Exit is handed over before Serve starts
			leftc := make(chan bool, 1)
			go func() { leftc <- exit() }()
			waitPending(p)
			serve(s, echoHandler)
			left = <-leftc
		} else {
			serve(s, echoHandler)
			if _, err := c.Call(api.MallocCall{}); err != nil {
				t.Fatal(err)
			}
			left = exit()
		}
		if !left {
			t.Errorf("handed over first %v: Exit returned before Serve left", first)
		}
	}
}

// TestServeServerCloseUnblocksClient is TestPipeServerCloseUnblocksClient
// on the inline path: the server end closed while the call runs fails
// the call, and every later one, with ErrClosed.
func TestServeServerCloseUnblocksClient(t *testing.T) {
	c, s := Pipe()
	done := serve(s, handlerFunc(func(call api.Call) (api.Reply, bool) {
		_ = s.Close()
		return api.Reply{}, false
	}))
	if _, err := c.Call(api.SynchronizeCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("client err = %v, want ErrClosed", err)
	}
	<-done
	if _, err := c.Call(api.SynchronizeCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close err = %v, want ErrClosed", err)
	}
}

// TestServeCloseStorm is TestPipeCloseStorm with the server in Serve:
// Close from a third goroutine races inline calls.
func TestServeCloseStorm(t *testing.T) {
	closeStorm(t, func(s ServerConn) { Serve(s, echoHandler) })
}
