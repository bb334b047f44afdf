// Package transport carries intercepted CUDA calls between an
// application thread (frontend) and a runtime daemon.
//
// The paper's prototype uses the socket framework of the gVirtuS
// project: af_unix sockets natively and VM-sockets inside virtual
// machines (§3). This package offers the same synchronous call/reply
// channel in two flavours: an in-process pipe (the af_unix equivalent
// when application and runtime share a process, used by tests, examples
// and benchmarks) and a TCP transport (the cross-VM / cross-node
// equivalent, used by the daemons and by inter-node offloading), which
// carries each call and reply as one fixed-layout binary frame (tcp.go;
// the bodies are internal/api/wire.go).
//
// A connection corresponds to exactly one application thread, carries
// one call at a time, and stays open for the thread's lifetime — the
// unit the paper's connection manager enqueues and the dispatcher
// schedules. A TCP client may also post a call (Poster): the frame is
// written and the reply is left to be collected, in order, by the
// connection's next Call; the server cannot tell the difference. Serve
// is the one server loop: the runtime supplies a Handler per
// connection. Over a stream the connection's goroutine receives each
// call, handles it and replies, holding a reply back while the client's
// next call is already buffered, so a burst of posted calls is answered
// in one write. Over a pipe the client's Call runs the
// handler on the application's own goroutine, the first call too — no
// hand-off, no park — while the connection's goroutine waits for the
// connection to end; a pipe's per-call path touches nothing any other
// pipe does.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"gvrt/internal/api"
)

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is the application (frontend) side of a connection: a call/reply
// channel whose Call blocks for its reply. A Conn that is also a Poster
// may have calls in flight whose replies it has not read; Call reads
// them first.
type Conn interface {
	// Call sends one CUDA call and blocks for its reply.
	Call(api.Call) (api.Reply, error)
	// Close tears down the connection. The server observes EOF.
	Close() error
}

// Poster is implemented by a Conn that can send a call without waiting
// for its reply; only the TCP client is one. Post writes the call's
// frame before it returns and keeps nothing of the call. The server
// replies to it as to any call, and the connection's next Call collects
// the owed replies, oldest first, before it sends its own. The first
// posted call that failed ends the connection: that Call returns its
// reply in place of its own, which is never sent, and every later
// operation returns ErrClosed. Outstanding posts are bounded: at the
// bound, Post collects first, and returns a posted failure as its
// error. Any Post error ends the connection.
type Poster interface {
	Post(api.Call) error
}

// ServerConn is the runtime side of a connection.
type ServerConn interface {
	// Recv blocks for the next call. It returns ErrClosed once the
	// client has closed the connection and all calls are drained. A nil
	// error guarantees a non-nil call, so a server loop may use what it
	// receives without checking. Over a stream it guarantees more: an
	// api.WithSpan wraps a non-nil call that is not another WithSpan,
	// and anything a peer sends that does not decode into such a call
	// ends the connection instead (the pipe's sender is code in this
	// process and is only held to non-nil). A received call is
	// immutable and is not retained past its handling: a handler never
	// writes through it or its slices, and whatever keeps part of it
	// copies what it keeps. A stream hands out one pointer for every
	// repeat of the same frame, and a pipe hands over the caller's own
	// call, which the caller reuses once the reply is back.
	Recv() (api.Call, error)
	// Reply answers the call most recently returned by Recv. Over a
	// stream a reply may be held, unwritten, while the client's whole
	// next call is already buffered; it is written with a later reply,
	// before Recv would wait, or when Serve ends the connection.
	Reply(api.Reply) error
	// Close tears down the connection; a blocked client call observes
	// an ErrConnectionClosed reply.
	Close() error
}

// Handler serves the calls of one connection, one at a time. Handle
// answers a call and reports whether the connection ends after that
// reply — an application's exit, or a failure that leaves the
// connection unusable. The call is the sender's, as on ServerConn.Recv:
// immutable, and not retained past Handle — retaining means copying.
type Handler interface {
	Handle(api.Call) (api.Reply, bool)
}

// Serve answers the calls on sc with h until the connection ends, then
// closes sc. Over a stream it is a Recv → Handle → Reply loop on the
// calling goroutine; the replies Reply held go out before the close,
// however the loop ends — an ending call, a malformed frame (Recv writes
// them) or a handler panic. Over a pipe the client's Call runs Handle on the
// client's own goroutine (a call made before Serve starts waits for it),
// so a call costs no goroutine hand-off; Serve only parks until the
// connection ends and no call is in flight, so the caller's teardown
// never runs beside the handler.
// Over a stream, a handler panic ends only its connection: Serve returns
// it as its only error. Over a pipe it goes on up the caller's goroutine.
func Serve(sc ServerConn, h Handler) (err error) {
	if p, ok := sc.(*pipeServer); ok {
		(*pipe)(p).serve(h)
		return nil
	}
	defer func() {
		if t, ok := sc.(*tcpServerConn); ok {
			t.flush() // what Reply held, whether the loop ended or panicked
		}
		_ = sc.Close()
	}()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("transport: handler panicked: %v", r)
		}
	}()
	for {
		call, err := sc.Recv()
		if err != nil {
			return nil
		}
		r, end := h.Handle(call)
		if sc.Reply(r) != nil || end {
			return nil
		}
	}
}

// pipe implements an in-process connection. Once Serve installs a
// handler, the client's Call runs it inline (busy marks that call in
// flight). Before then the call is handed over in the pipe's own field
// and the client parks on the pipe's one condition variable, until a
// Recv/Reply server answers it or Serve's handler is installed and the
// client takes it back to run inline. mu guards every field and is never
// held across a handler. Close, from either side or a third goroutine,
// marks the pipe closed and wakes whichever side is parked with
// ErrClosed. Recv still receives a call handed over before the close,
// and only its reply fails; Serve never runs it.
//
// Neither field outlives its delivery: the receiving side takes the
// value and clears the field, so the pipe never pins a caller's buffers.
type pipe struct {
	mu sync.Mutex
	sync.Cond
	closed  bool
	pending bool // call holds a call neither Recv nor its client has taken
	replied bool // reply holds a reply the client has not taken
	busy    bool // a client is running h inline
	left    bool // Serve has returned
	h       Handler
	call    api.Call
	reply   api.Reply
}

// Pipe creates a connected in-process (client, server) pair.
func Pipe() (Conn, ServerConn) {
	p := &pipe{}
	p.L = &p.mu
	return (*pipeClient)(p), (*pipeServer)(p)
}

type pipeClient pipe

func (c *pipeClient) Call(call api.Call) (api.Reply, error) {
	p := (*pipe)(c)
	if call == nil {
		return api.Reply{}, errors.New("transport: nil call")
	}
	p.mu.Lock()
	if p.h == nil && !p.closed {
		// No handler yet: wait for a Recv server's reply, Serve or Close.
		p.call, p.pending = call, true
		p.Broadcast()
		for !p.replied && !p.closed && (p.h == nil || !p.pending) {
			p.Wait()
		}
		if p.replied {
			r := p.reply
			p.reply, p.replied = api.Reply{}, false
			p.mu.Unlock()
			return r, nil
		}
		if !p.closed {
			p.call, p.pending = nil, false
		}
	}
	if p.closed {
		p.mu.Unlock()
		return api.Reply{}, ErrClosed
	}
	p.busy = true
	h := p.h
	p.mu.Unlock()
	r, end := p.run(h, call)
	p.mu.Lock()
	p.busy = false
	closed := p.closed
	if closed || end {
		p.closed = true
		p.Broadcast()
	}
	// The call that ends the connection returns only once Serve has:
	// the server goroutine runs before its client goes on.
	for end && !closed && !p.left {
		p.Wait()
	}
	p.mu.Unlock()
	if closed {
		return api.Reply{}, ErrClosed
	}
	return r, nil
}

func (c *pipeClient) Close() error {
	(*pipe)(c).close()
	return nil
}

// run calls h on call. A handler that panics or exits its goroutine
// closes the pipe on the way out, so Serve returns and its caller's
// teardown runs.
func (p *pipe) run(h Handler, call api.Call) (api.Reply, bool) {
	done := false
	defer func() {
		if !done {
			p.mu.Lock()
			p.busy = false
			p.closed = true
			p.Broadcast()
			p.mu.Unlock()
		}
	}()
	r, end := h.Handle(call)
	done = true
	return r, end
}

// serve is Serve over a pipe. It only installs h and waits for the
// pipe to close with no call in flight: every call, a call handed over
// before h was installed too, runs inline in its client.
func (p *pipe) serve(h Handler) {
	p.mu.Lock()
	p.h = h
	p.Broadcast()
	for !p.closed || p.busy {
		p.Wait()
	}
	p.h, p.left = nil, true
	p.Broadcast()
	p.mu.Unlock()
}

type pipeServer pipe

func (s *pipeServer) Recv() (api.Call, error) {
	p := (*pipe)(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.pending && !p.closed {
		p.Wait()
	}
	if !p.pending {
		return nil, ErrClosed
	}
	call := p.call
	p.call, p.pending = nil, false
	return call, nil
}

func (s *pipeServer) Reply(r api.Reply) error {
	p := (*pipe)(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.reply, p.replied = r, true
	p.Broadcast()
	return nil
}

func (s *pipeServer) Close() error {
	(*pipe)(s).close()
	return nil
}

func (p *pipe) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		p.Broadcast()
	}
}

// String diagnostics.
func (c *pipeClient) String() string { return "pipe-client" }
func (s *pipeServer) String() string { return fmt.Sprintf("pipe-server(%p)", s) }
