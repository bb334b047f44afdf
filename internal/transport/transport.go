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
// schedules. The pipe relies on that alternation: the call and the reply
// travel in the pipe's own fields, each direction is woken through a
// one-slot channel that is never found full, and each side parks on a
// plain receive — no select — and a pipe's per-call path touches
// nothing any other pipe does.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"gvrt/internal/api"
)

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is the application (frontend) side of a connection: a strictly
// synchronous call/reply channel.
type Conn interface {
	// Call sends one CUDA call and blocks for its reply.
	Call(api.Call) (api.Reply, error)
	// Close tears down the connection. The server observes EOF.
	Close() error
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
	// immutable: a handler never writes through its slices. A stream
	// hands out one value for every repeat of the same frame, and a pipe
	// hands over the caller's own slices.
	Recv() (api.Call, error)
	// Reply answers the call most recently returned by Recv.
	Reply(api.Reply) error
	// Close tears down the connection; a blocked client call observes
	// an ErrConnectionClosed reply.
	Close() error
}

// pipe implements an in-process connection. The call and the reply
// travel in the pipe's own fields; each direction is signalled by a
// one-slot channel. Calls strictly alternate with replies, so a signal
// never finds its slot full, and each side parks on a plain receive
// rather than a select that also locks a done channel.
// Close, from either side or a third goroutine, marks the pipe closed
// and closes both signal channels under mu, the lock that orders every
// signal: whichever side is parked wakes and observes ErrClosed. A
// signal sent before the close is still delivered, so a call the client
// handed over is received and only its reply fails.
//
// Neither field outlives its delivery: the receiving side takes the
// value and clears the field, so the pipe never pins a caller's buffers.
type pipe struct {
	mu      sync.Mutex
	closed  bool
	call    api.Call
	reply   api.Reply
	callSig chan struct{}
	replSig chan struct{}
}

// Pipe creates a connected in-process (client, server) pair.
func Pipe() (Conn, ServerConn) {
	p := &pipe{callSig: make(chan struct{}, 1), replSig: make(chan struct{}, 1)}
	return (*pipeClient)(p), (*pipeServer)(p)
}

type pipeClient pipe

func (c *pipeClient) Call(call api.Call) (api.Reply, error) {
	p := (*pipe)(c)
	if call == nil {
		return api.Reply{}, errors.New("transport: nil call")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return api.Reply{}, ErrClosed
	}
	p.call = call
	p.callSig <- struct{}{}
	p.mu.Unlock()
	if _, ok := <-p.replSig; !ok {
		return api.Reply{}, ErrClosed
	}
	r := p.reply
	p.reply = api.Reply{}
	return r, nil
}

func (c *pipeClient) Close() error {
	(*pipe)(c).close()
	return nil
}

type pipeServer pipe

func (s *pipeServer) Recv() (api.Call, error) {
	p := (*pipe)(s)
	if _, ok := <-p.callSig; !ok {
		return nil, ErrClosed
	}
	call := p.call
	p.call = nil
	return call, nil
}

func (s *pipeServer) Reply(r api.Reply) error {
	p := (*pipe)(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.reply = r
	p.replSig <- struct{}{}
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
		close(p.callSig)
		close(p.replSig)
	}
}

// String diagnostics.
func (c *pipeClient) String() string { return "pipe-client" }
func (s *pipeServer) String() string { return fmt.Sprintf("pipe-server(%p)", s) }
