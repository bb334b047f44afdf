package core

import (
	"gvrt/internal/api"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// This file implements inter-node offloading (§4.7): when the node is
// overloaded — measured by the length of the queue of contexts waiting
// for a virtual GPU — newly arriving application threads are redirected
// to a peer node over the transport. Only the thread's GPU library
// calls move; its CPU phases keep running wherever the application
// lives.

// shouldOffload reports whether a newly admitted connection should be
// redirected: the load signal is the number of application threads the
// node would then host beyond its virtual-GPU capacity — the projected
// length of the pending/waiting queue once every admitted thread reaches
// its first kernel launch. (The paper uses the size of the
// pending-connections list; connections arrive before their first
// launch, so the projected queue is the same signal evaluated at
// admission time.)
func (rt *Runtime) shouldOffload(admitted int) bool {
	if rt.cfg.PeerDial == nil || rt.cfg.OffloadThreshold <= 0 {
		return false
	}
	return rt.projectedQueue(admitted) >= rt.cfg.OffloadThreshold
}

// projectedQueue is the load signal offloading reads: the number of
// application threads beyond virtual-GPU capacity once every admitted
// thread reaches its first kernel launch.
func (rt *Runtime) projectedQueue(admitted int) int {
	vgpus := 0
	for _, ds := range rt.deviceList() {
		if ds.healthy.Load() {
			vgpus += ds.nslots
		}
	}
	// Live contexts lag admissions by a beat (the dispatcher goroutine
	// registers them); take whichever count is larger so simultaneous
	// arrivals and long-lived threads are both seen.
	rt.mu.Lock()
	if l := len(rt.ctxs) + 1; l > admitted {
		admitted = l
	}
	rt.mu.Unlock()
	return admitted - vgpus
}

// HandleConn is the connection-manager entry point: it serves the
// connection locally, proxies it to a peer node, or, while the node
// drains, refuses it (shed). Call it on its own goroutine per accepted
// connection.
func (rt *Runtime) HandleConn(sc transport.ServerConn) {
	if rt.draining.Load() {
		// Graceful shutdown in progress: refuse new work fast while
		// in-flight sessions run to completion.
		rt.sheds.Add(1)
		rt.event(trace.KindShed, 0, 0, -1, "draining")
		transport.Serve(sc, shed{})
		return
	}
	admitted := int(rt.admitted.Add(1))
	if rt.shouldOffload(admitted) {
		peer, err := rt.cfg.PeerDial()
		if err == nil {
			rt.admitted.Add(-1)
			rt.offloaded.Add(1)
			rt.event(trace.KindOffload, 0, 0, -1, "")
			// The offload span lives for the whole proxied connection;
			// its ID travels with every forwarded call so the peer's
			// call spans parent to it across the wire.
			osp := rt.beginSpan("offload", 0, 0)
			transport.Serve(sc, &hop{peer: peer, parent: osp.id()})
			_ = peer.Close()
			osp.end(-1, "", nil)
			return
		}
		rt.eventf(trace.KindNote, 0, -1, "offload dial failed (%v); serving locally", err)
	}
	defer rt.admitted.Add(-1)
	rt.Serve(sc)
}

// shed refuses a connection while the node drains: every call is
// answered with ErrOverloaded, without ever creating a context or
// touching the waiting list, until the application gives up or exits.
type shed struct{}

func (shed) Handle(call api.Call) (api.Reply, bool) {
	if _, isExit := api.Lift(call).(*api.ExitCall); isExit {
		return api.Reply{}, true
	}
	return api.Reply{Code: api.ErrOverloaded}, false
}

// hop is an offloaded connection's handler: it forwards each call to a
// peer runtime and relays the reply. A non-zero parent span ID is
// attached to every forwarded call (api.WithSpan) so the peer's spans
// nest under this hop in a merged trace.
//
// Over a peer that can post (transport.Poster), a call whose reply is
// only a code and which CUDA itself may complete asynchronously is
// posted and answered Success at once; the next synchronous call
// collects the replies. A posted call that failed reaches the
// application as that call's reply, and the peer connection ends with
// it — CUDA's sticky error — so no retry can lose the posted work.
// (The peer is asserted a Poster per posted call rather than held in a
// second field, which would take the hop to the next size class.)
type hop struct {
	peer   transport.Conn
	parent trace.SpanID
}

func (h *hop) Handle(call api.Call) (api.Reply, bool) {
	// A call that an earlier hop already wrapped is forwarded under this
	// hop's span, or as it came when this hop records none: a WithSpan
	// never wraps another.
	out := api.Lift(call)
	call = out
	if w, ok := out.(api.WithSpan); ok {
		call = w.Call
	}
	if h.parent != 0 {
		out = api.WithSpan{Parent: uint64(h.parent), Call: call}
	}
	if p, ok := h.peer.(transport.Poster); ok && posted(call) {
		if p.Post(out) != nil {
			return api.Reply{Code: api.ErrConnectionClosed}, true
		}
		return api.Reply{}, false
	}
	reply, err := h.peer.Call(out)
	if err != nil {
		// The peer died mid-stream; the application observes a
		// connection-level failure, as it would with a crashed remote
		// daemon. A deadline expiry keeps its own code so the caller can
		// tell "peer too slow" from "peer gone" — either way this
		// proxied stream is finished.
		code := api.ErrConnectionClosed
		if api.Code(err) == api.ErrDeadlineExceeded {
			code = api.ErrDeadlineExceeded
		}
		return api.Reply{Code: code}, true
	}
	_, isExit := call.(*api.ExitCall)
	return reply, isExit
}

// posted reports whether the hop posts call: its reply carries only a
// code, and CUDA may complete it asynchronously.
func posted(call api.Call) bool {
	switch call.(type) {
	case *api.LaunchCall, *api.MemcpyHDCall, *api.FreeCall, *api.SetTenantCall:
		return true
	}
	return false
}

// ServeListener accepts connections until the listener closes, routing
// each through HandleConn. It is the daemon main loop.
func (rt *Runtime) ServeListener(l *transport.Listener) {
	for {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		go rt.HandleConn(sc)
	}
}
