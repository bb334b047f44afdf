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
// schedules.
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

// pipe implements an in-process connection with a pair of unbuffered
// channels: the rendezvous gives exactly the synchronous semantics of
// the socket RPC.
type pipe struct {
	calls   chan api.Call
	replies chan api.Reply
	done    chan struct{}
	once    sync.Once
}

// Pipe creates a connected in-process (client, server) pair.
func Pipe() (Conn, ServerConn) {
	p := &pipe{
		calls:   make(chan api.Call),
		replies: make(chan api.Reply),
		done:    make(chan struct{}),
	}
	return (*pipeClient)(wrap(p)), (*pipeServer)(wrap(p))
}

// wrap is the identity; it exists so the two views share the struct
// while having distinct method sets.
func wrap(p *pipe) *pipe { return p }

type pipeClient pipe

func (c *pipeClient) Call(call api.Call) (api.Reply, error) {
	p := (*pipe)(c)
	if call == nil {
		return api.Reply{}, errors.New("transport: nil call")
	}
	select {
	case p.calls <- call:
	case <-p.done:
		return api.Reply{}, ErrClosed
	}
	select {
	case r := <-p.replies:
		return r, nil
	case <-p.done:
		return api.Reply{}, ErrClosed
	}
}

func (c *pipeClient) Close() error {
	(*pipe)(c).close()
	return nil
}

type pipeServer pipe

func (s *pipeServer) Recv() (api.Call, error) {
	p := (*pipe)(s)
	select {
	case call := <-p.calls:
		return call, nil
	case <-p.done:
		return nil, ErrClosed
	}
}

func (s *pipeServer) Reply(r api.Reply) error {
	p := (*pipe)(s)
	select {
	case p.replies <- r:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (s *pipeServer) Close() error {
	(*pipe)(s).close()
	return nil
}

func (p *pipe) close() { p.once.Do(func() { close(p.done) }) }

// String diagnostics.
func (c *pipeClient) String() string { return "pipe-client" }
func (s *pipeServer) String() string { return fmt.Sprintf("pipe-server(%p)", s) }
