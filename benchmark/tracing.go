package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// The traced run wraps the connections the benchmark hands to the
// program with timing decorators (the pattern transport.WithFaults
// uses), so every call yields spans at the layer boundaries the
// benchmark can see from outside:
//
//	frontend.call                  client goroutine, around the frontend.Client method
//	├ transport.request            client conn Call entry → server conn Recv return
//	├ core.handle.<call>           server conn Recv return → Reply entry (served locally)
//	│   or core.proxy              the same interval when the head proxies the call
//	│   └ transport.tcp_call       the head's peer conn Call
//	│       └ core.handle.<call>   Recv return → Reply entry on the peer
//	└ transport.reply              server conn Reply entry → client conn Call return
//
// Every span of one session carries the session's number as its track.
// Spans inside the program are a later issue; children of core.handle
// come from deltas of what the program already counts (roundRec.note*).

type spanKind int

const (
	spFrontend spanKind = iota
	spRequest
	spHandle
	spReply
	spProxy
	spTCPCall
	spPeerHandle
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"frontend.call", "transport.request", "core.handle", "transport.reply",
	"core.proxy", "transport.tcp_call", "core.handle",
}

// spanAgg sums one span kind over every traced call of a round.
type spanAgg struct{ n, ns int64 }

func (a *spanAgg) add(ns int64) { a.n++; a.ns += ns }

func (a spanAgg) meanUS() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / 1e3
}

// tracer collects the spans of a traced run. A nil *tracer is the
// untraced run: its methods hand back the undecorated connections.
type tracer struct {
	epoch   time.Time
	offload bool // the pipe's server side is the head's proxy, not a local handler
	keep    int  // sessions per round whose spans are kept in full for the trace file

	mu       sync.Mutex
	agg      [nSpanKinds]spanAgg
	handle   map[string]*spanAgg // core.handle by call name
	spans    []trace.Span
	sessions int64 // sessions traced this round
	nextSess int64 // session numbers over the whole run

	// Connection set-up is serialised while offloading, so that each
	// dial (made inside HandleConn, which takes no context) can be
	// attributed to the session that caused it, and accepts pair with
	// dials in order.
	dialMu  sync.Mutex
	dialing *connTrace
	// dialled hands each completed dial's session to the peer's accept
	// loop; dials are serialised, so one slot suffices.
	dialled chan *connTrace
}

func newTracer(offload bool, keep int) *tracer {
	return &tracer{epoch: time.Now(), offload: offload, keep: keep, handle: map[string]*spanAgg{},
		dialled: make(chan *connTrace, 1)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// connTrace is the shared state of one session's decorated
// connections. Each field has one writer at a time, ordered against
// its reader by the call/reply rendezvous of the pipe; the two stamps
// written on the peer reach the head only through a socket, so they are
// atomics.
type connTrace struct {
	t    *tracer
	sess int64
	keep bool
	once sync.Once // releases dialMu

	name              string
	root, mid, tcp    trace.SpanID
	tCall, tRecv      int64
	tReply            int64
	peerRecv, peerRep atomic.Int64

	agg    [nSpanKinds]spanAgg
	handle map[string]*spanAgg
	spans  []trace.Span
}

func (ct *connTrace) span(kind spanKind, id, parent trace.SpanID, start, end int64, pid string) {
	ct.agg[kind].add(end - start)
	name := spanNames[kind]
	if kind == spHandle || kind == spPeerHandle {
		a := ct.handle[ct.name]
		if a == nil {
			a = &spanAgg{}
			ct.handle[ct.name] = a
		}
		a.add(end - start)
		name += "." + ct.name
	}
	if ct.keep {
		ct.spans = append(ct.spans, trace.Span{
			ID: id, Parent: parent, Ctx: ct.sess, Phase: name,
			Start: time.Duration(start), End: time.Duration(end), Device: -1, Detail: pid,
		})
	}
}

// open starts one session of client c: a connected pipe and the record
// its calls are counted in. Traced, both ends of the pipe are decorated
// and the session carries the trace its frontend.call spans go to.
func (t *tracer) open(c *clientRec) (session, transport.Conn, transport.ServerConn) {
	conn, sc := transport.Pipe()
	s := session{c: c, start: time.Now()}
	if t == nil {
		return s, conn, sc
	}
	t.mu.Lock()
	t.nextSess++
	t.sessions++
	ct := &connTrace{t: t, sess: t.nextSess, keep: t.sessions <= int64(t.keep), handle: map[string]*spanAgg{}}
	t.mu.Unlock()
	s.ct = ct
	if t.offload {
		t.dialMu.Lock()
		t.dialing = ct
	}
	return s, &tracedConn{inner: conn, ct: ct}, &tracedServer{inner: sc, ct: ct, proxy: t.offload}
}

// finish merges a finished session into the round's totals.
func (ct *connTrace) finish() {
	t := ct.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range ct.agg {
		t.agg[k].n += ct.agg[k].n
		t.agg[k].ns += ct.agg[k].ns
	}
	for name, a := range ct.handle {
		ta := t.handle[name]
		if ta == nil {
			ta = &spanAgg{}
			t.handle[name] = ta
		}
		ta.n += a.n
		ta.ns += a.ns
	}
	t.spans = append(t.spans, ct.spans...)
}

// frontendCall records the client-observed span of the call that just
// returned; it is the root the call's other spans hang from.
func (ct *connTrace) frontendCall(start time.Time, dur int64) {
	s := int64(start.Sub(ct.t.epoch))
	ct.span(spFrontend, ct.root, 0, s, s+dur, "client")
}

type tracedConn struct {
	inner transport.Conn
	ct    *connTrace
}

func (c *tracedConn) Call(call api.Call) (api.Reply, error) {
	ct := c.ct
	ct.name = call.CallName()
	ct.root, ct.mid = trace.NewSpanID(), trace.NewSpanID()
	ct.tCall = ct.t.now()
	r, err := c.inner.Call(call)
	done := ct.t.now()
	if err == nil {
		ct.span(spRequest, trace.NewSpanID(), ct.root, ct.tCall, ct.tRecv, "client")
		ct.span(spReply, trace.NewSpanID(), ct.root, ct.tReply, done, "client")
	}
	return r, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// tracedServer decorates the server end of a session's pipe: the
// interval between Recv returning and Reply being called is the time
// the program spent on the call.
type tracedServer struct {
	inner transport.ServerConn
	ct    *connTrace
	proxy bool
}

func (s *tracedServer) Recv() (api.Call, error) {
	call, err := s.inner.Recv()
	s.ct.tRecv = s.ct.t.now()
	if s.proxy {
		// Reached only after HandleConn decided what to do with the
		// connection; if it did not dial, set-up must still be released.
		s.ct.releaseDial()
	}
	return call, err
}

func (s *tracedServer) Reply(r api.Reply) error {
	ct := s.ct
	ct.tReply = ct.t.now()
	kind := spHandle
	if s.proxy {
		kind = spProxy
	}
	ct.span(kind, ct.mid, ct.root, ct.tRecv, ct.tReply, "node")
	return s.inner.Reply(r)
}

func (s *tracedServer) Close() error { return s.inner.Close() }

func (ct *connTrace) releaseDial() {
	ct.once.Do(func() {
		ct.t.dialing = nil
		ct.t.dialMu.Unlock()
	})
}

// peerDial decorates the head's PeerDial. The dial runs on the
// HandleConn goroutine of the session that holds dialMu.
func (t *tracer) peerDial(dial func() (transport.Conn, error)) func() (transport.Conn, error) {
	if t == nil {
		return dial
	}
	return func() (transport.Conn, error) {
		conn, err := dial()
		ct := t.dialing
		if err != nil || ct == nil {
			return conn, err
		}
		t.dialled <- ct
		ct.releaseDial()
		return &tracedPeerConn{inner: conn, ct: ct}, nil
	}
}

// tracedPeerConn is the head's end of an offloaded session's TCP
// connection.
type tracedPeerConn struct {
	inner transport.Conn
	ct    *connTrace
}

func (c *tracedPeerConn) Call(call api.Call) (api.Reply, error) {
	ct := c.ct
	ct.tcp = trace.NewSpanID()
	start := ct.t.now()
	r, err := c.inner.Call(call)
	end := ct.t.now()
	if err == nil {
		ct.span(spTCPCall, ct.tcp, ct.mid, start, end, "node")
		ct.span(spPeerHandle, trace.NewSpanID(), ct.tcp, ct.peerRecv.Load(), ct.peerRep.Load(), "peer")
	}
	return r, err
}

func (c *tracedPeerConn) Close() error { return c.inner.Close() }

// accepted decorates a connection the peer's accept loop took off the
// listener. Dials are serialised, so the n-th accept is the n-th dial;
// the accept may win the race against the dialler's hand-over, hence
// the blocking receive.
func (t *tracer) accepted(sc transport.ServerConn) transport.ServerConn {
	if t == nil {
		return sc
	}
	return &tracedPeerServer{inner: sc, ct: <-t.dialled}
}

type tracedPeerServer struct {
	inner transport.ServerConn
	ct    *connTrace
}

func (s *tracedPeerServer) Recv() (api.Call, error) {
	call, err := s.inner.Recv()
	s.ct.peerRecv.Store(s.ct.t.now())
	return call, err
}

func (s *tracedPeerServer) Reply(r api.Reply) error {
	s.ct.peerRep.Store(s.ct.t.now())
	return s.inner.Reply(r)
}

func (s *tracedPeerServer) Close() error { return s.inner.Close() }

// flush moves the round's span totals into the round's per-layer
// values and resets them; clients must have finished their sessions.
func (t *tracer) flush(r *roundRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	set := func(name string, a spanAgg) { r.layer[name] = a.meanUS() }
	set("frontend.call_us", t.agg[spFrontend]) // iteration-loop calls only
	set("transport.request_us", t.agg[spRequest])
	set("transport.reply_us", t.agg[spReply])
	// served is where calls were handled: locally, or on the peer.
	served := t.agg[spHandle]
	if t.offload {
		px, tcp, ph := t.agg[spProxy], t.agg[spTCPCall], t.agg[spPeerHandle]
		r.layer["core.proxy_self_us"] = px.meanUS() - tcp.meanUS()
		r.layer["transport.tcp_call_self_us"] = tcp.meanUS() - ph.meanUS()
		set("core.peer_handle_us", ph)
		served = ph
	} else {
		set("core.handle_us", served)
	}
	if a := t.handle["cudaLaunch"]; a != nil {
		set("core.handle_launch_us", *a)
	}
	if a := t.handle["cudaMemcpyHtoD"]; a != nil {
		set("core.handle_memcpy_hd_us", *a)
	}
	// Dispatch self-time: what the program spent between taking a call
	// and answering it, less what it attributes to work below dispatch.
	if served.n > 0 {
		r.layer["core.dispatch_self_us"] = (float64(served.ns) - r.childNS) / float64(served.n) / 1e3
	}
	t.agg = [nSpanKinds]spanAgg{}
	t.handle = map[string]*spanAgg{}
	t.sessions = 0
}

// writeChrome writes the kept spans as Chrome trace JSON, one process
// row per side of the wire.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	procs := map[string]*trace.ChromeProcess{}
	var order []string
	for _, s := range t.spans {
		p := procs[s.Detail]
		if p == nil {
			p = &trace.ChromeProcess{Name: "benchmark " + s.Detail}
			procs[s.Detail] = p
			order = append(order, s.Detail)
		}
		s.Detail = ""
		p.Spans = append(p.Spans, s)
	}
	list := make([]trace.ChromeProcess, 0, len(order))
	for _, k := range order {
		list = append(list, *procs[k])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, list...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
