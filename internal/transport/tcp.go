package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"gvrt/internal/api"
)

// Every call and reply travels as one frame: a fixed header followed by
// the body internal/api/wire.go defines for the frame's kind.
//
//	offset 0   length   uint32  bytes of body after the header
//	offset 4   version  uint8   wireVersion
//	offset 5   kind     uint8   api.Kind of the call (| api.KindSpan), or api.KindReply
//	offset 6   seq      uint64  call number; a reply repeats its call's
//	offset 14  parent   uint64  forwarder's span ID; zero unless kind has api.KindSpan
//	offset 22  body
//
// Little-endian, like internal/wal. There is no checksum: TCP
// delivers bytes intact or not at all, and the migration frames
// riding inside MigrateFrameCall keep their own CRCs. There is no
// negotiation either — a connection's first frame costs what every
// later one does, which is what short offloaded sessions (§4.7) need.
// DESIGN.md "Wire format" is the reference.
const (
	wireVersion = 1
	headerLen   = 22

	// MaxFrame caps a frame's body. A larger length field is a protocol
	// violation, never a read of that size; a larger call or reply is not
	// sent.
	MaxFrame = 1 << 28

	// readBuf is each connection's buffered-reader size. A frame that
	// fits is decoded in place, with no allocation for the frame itself.
	readBuf = 1024
	// readChunk bounds what a length field can make the reader allocate
	// ahead of the bytes backing it up: a frame too big for the read
	// buffer gets a buffer of its own, readChunk at first and then at
	// most doubled each time it has actually been filled.
	readChunk = 1 << 20
	// keepWriteBuf is the largest send buffer a connection holds on to
	// between frames.
	keepWriteBuf = 64 << 10

	// memoSize is how many decoded frames a serving connection
	// remembers (wire.decodeCall), and memoRoom the body bytes each
	// memo slot starts with: every fixed-size call and a launch with a
	// few arguments.
	memoSize = 4
	memoRoom = 128

	// maxPosted bounds a client connection's posted calls whose replies
	// it has not read yet; the post past it collects them first.
	maxPosted = 64
)

var le = binary.LittleEndian

// noHeader is the room a frame's header takes before send fills it in.
var noHeader [headerLen]byte

// wire is the framing state of one end of a connection. It is used by
// one goroutine at a time: calls are strictly sequential. Wires are
// pooled: a connection takes one when it opens and its Close gives it
// back, so a short offloaded session (§4.7) pays for no buffer of its
// own.
type wire struct {
	c  net.Conn
	br *bufio.Reader
	// held is the size of the frame last returned by read and still
	// sitting in br; the next read drops it.
	held int
	// wbuf is the reusable send buffer: header and body are assembled in
	// it and leave in one Write. A payload is not copied into it; it goes
	// out in the same writev through vec (two Writes on a net.Conn that
	// has no writev), iov being vec's storage.
	wbuf []byte
	iov  [2][]byte
	vec  net.Buffers
	// out is the length of the frames held at the front of wbuf: replies
	// a serving side has not written yet (tcpServerConn.Reply). The next
	// frame is assembled after them and leaves with them.
	out int
	// memo is the serving side's last decoded frames, next the slot the
	// next miss overwrites.
	memo [memoSize]memoEntry
	next int
}

// memoEntry is one remembered frame: the header fields its decoding
// depends on, a copy of its body, and the call it decoded to (nil in an
// empty slot).
type memoEntry struct {
	kind   api.Kind
	parent uint64
	body   []byte
	call   api.Call
}

var wirePool = sync.Pool{New: func() any {
	w := &wire{br: bufio.NewReaderSize(nil, readBuf), wbuf: make([]byte, headerLen, 256)}
	room := make([]byte, memoSize*memoRoom)
	for i := range w.memo {
		w.memo[i].body = room[i*memoRoom : i*memoRoom : (i+1)*memoRoom]
	}
	return w
}}

func newWire(c net.Conn) *wire {
	w := wirePool.Get().(*wire)
	w.c = c
	w.br.Reset(c)
	return w
}

// release clears w — its connection, buffered bytes and remembered
// calls — and puts it back in the pool. The caller must hold the only
// reference and drop it.
func (w *wire) release() {
	w.br.Reset(nil)
	w.c, w.held, w.out, w.next = nil, 0, 0, 0
	for i := range w.memo {
		w.memo[i] = memoEntry{body: w.memo[i].body[:0]}
	}
	wirePool.Put(w)
}

func (w *wire) sendCall(seq uint64, call api.Call) error {
	buf, payload, kind, parent := api.AppendCall(w.wbuf[:headerLen], call)
	if kind == 0 {
		return fmt.Errorf("%T has no wire form", call)
	}
	return w.send(buf, payload, kind, seq, parent, false)
}

// sendReply sends r, after the replies held so far. With hold set, a
// reply with no payload is held too, until a later frame or flush.
func (w *wire) sendReply(seq uint64, r api.Reply, hold bool) error {
	buf, payload := api.AppendReply(append(w.wbuf[:w.out], noHeader[:]...), r)
	return w.send(buf, payload, api.KindReply, seq, 0, hold)
}

// send fills in the header of the frame at w.out in buf and writes buf —
// the held frames with it — or, with hold set and no payload, holds it.
func (w *wire) send(buf, payload []byte, kind api.Kind, seq, parent uint64, hold bool) error {
	hdr := buf[w.out:]
	n := len(hdr) - headerLen + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("%d-byte frame exceeds the %d-byte cap", n, MaxFrame)
	}
	le.PutUint32(hdr[0:], uint32(n))
	hdr[4] = wireVersion
	hdr[5] = byte(kind)
	le.PutUint64(hdr[6:], seq)
	le.PutUint64(hdr[14:], parent)
	keep := cap(buf) <= keepWriteBuf
	if keep {
		w.wbuf = buf
	}
	if hold && keep && len(payload) == 0 {
		w.out = len(buf)
		return nil
	}
	w.out = 0
	if len(payload) == 0 {
		_, err := w.c.Write(buf)
		return err
	}
	w.iov = [2][]byte{buf, payload}
	w.vec = w.iov[:]
	_, err := w.vec.WriteTo(w.c)
	w.iov = [2][]byte{}
	return err
}

// flush writes the frames held in wbuf.
func (w *wire) flush() error {
	if w.out == 0 {
		return nil
	}
	_, err := w.c.Write(w.wbuf[:w.out])
	w.out = 0
	return err
}

// buffered reports whether the read buffer holds the whole frame after
// the one read last: the next read will return it without waiting.
func (w *wire) buffered() bool {
	n, at := w.br.Buffered(), w.held+headerLen
	if n < at {
		return false
	}
	hdr, _ := w.br.Peek(at) // buffered bytes: cannot fail
	return at+int(le.Uint32(hdr[w.held:])) <= n
}

// frame is a received frame's header and body.
type frame struct {
	kind        api.Kind
	seq, parent uint64
	body        []byte
	// own reports that body is a buffer of the frame's own, which the
	// decoded value may keep; otherwise it is a view into the read
	// buffer, valid until the next read.
	own bool
}

// read returns the next frame. Every check on the header comes before
// the first byte of body is waited for or allocated.
func (w *wire) read() (frame, error) {
	if w.held > 0 {
		_, _ = w.br.Discard(w.held) // buffered bytes: cannot fail
		w.held = 0
	}
	hdr, err := w.br.Peek(headerLen)
	if err != nil {
		return frame{}, err
	}
	if hdr[4] != wireVersion {
		return frame{}, fmt.Errorf("transport: wire version %d, this side speaks %d", hdr[4], wireVersion)
	}
	n := le.Uint32(hdr[0:])
	if n > MaxFrame {
		return frame{}, fmt.Errorf("transport: header announces a %d-byte frame, cap is %d", n, MaxFrame)
	}
	f := frame{kind: api.Kind(hdr[5]), seq: le.Uint64(hdr[6:]), parent: le.Uint64(hdr[14:])}
	if total := headerLen + int(n); total <= w.br.Size() {
		view, err := w.br.Peek(total)
		if err != nil {
			return frame{}, err
		}
		w.held = total
		f.body = view[headerLen:]
		return f, nil
	}
	_, _ = w.br.Discard(headerLen)
	f.own = true
	f.body, err = readOwned(w.br, int(n))
	return f, err
}

// decodeCall is api.DecodeCall behind a memo of the last memoSize
// frames. A frame whose kind, span parent and body equal a remembered
// one gets the very pointer that one decoded to: an offloaded session's
// copies and launches repeat byte for byte, and a received call is
// immutable (ServerConn.Recv). Only a frame read in place is remembered,
// so the memo holds at most memoSize read buffers' worth of bytes.
func (w *wire) decodeCall(f frame) (api.Call, error) {
	for i := range w.memo {
		if e := &w.memo[i]; e.call != nil && e.kind == f.kind && e.parent == f.parent && bytes.Equal(e.body, f.body) {
			return e.call, nil
		}
	}
	call, err := api.DecodeCall(f.kind, f.parent, f.body, f.own)
	if err == nil && !f.own {
		e := &w.memo[w.next]
		*e = memoEntry{kind: f.kind, parent: f.parent, body: append(e.body[:0], f.body...), call: call}
		w.next = (w.next + 1) % memoSize
	}
	return call, err
}

// readOwned reads an n-byte body into a fresh buffer without trusting n
// for more than readChunk beyond what has arrived.
func readOwned(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for {
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err != nil || len(buf) == n {
			return buf, err
		}
		buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
	}
}

// endpoint is what either side of a stream connection holds: the socket
// and, until the connection ends, a pooled wire. mu serialises the
// side's operations, so a Close that races one cannot pull the wire from
// under it.
type endpoint struct {
	c  net.Conn
	mu sync.Mutex
	w  *wire // nil once the connection has ended
}

// drop gives the wire back to the pool; the caller holds mu. Every later
// operation finds no wire and returns ErrClosed, so none can touch a
// buffer another connection now owns.
func (e *endpoint) drop() {
	if e.w != nil {
		e.w.release()
		e.w = nil
	}
}

// Close may be called while an operation is in flight (another
// goroutine giving up on a peer that stopped replying): the socket
// closes before the lock is taken, so the blocked read fails and lets
// go of the wire.
func (e *endpoint) Close() error {
	err := e.c.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drop()
	return err
}

// tcpConn is the client side of a TCP connection. A connection belongs
// to a single application thread and carries one call at a time, or a
// run of posted calls whose replies the next Call collects.
type tcpConn struct {
	endpoint
	seq uint64
	// owed counts the posted calls, the last owed ones sent, whose
	// replies have not been read.
	owed int
}

// Dial connects to a runtime daemon at addr (host:port).
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewClientConn(c), nil
}

// NewClientConn wraps an established net.Conn as the client side of a
// connection. The Conn is also a Poster.
func NewClientConn(c net.Conn) Conn {
	return &tcpConn{endpoint: endpoint{c: c, w: newWire(c)}}
}

// Call collects the replies owed to posted calls, then sends call and
// waits for its reply. Any failure — a call with no wire form, a short
// write, a torn or malformed reply, a reply to a different call — ends
// the connection: every later Call returns ErrClosed. So does a posted
// call that failed: its reply is returned in place of call's, which is
// never sent.
func (t *tcpConn) Call(call api.Call) (api.Reply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return api.Reply{}, ErrClosed
	}
	if r, err := t.collect(); err != nil || r.Code != api.Success {
		return r, err
	}
	if err := t.send(call); err != nil {
		return api.Reply{}, err
	}
	reply, err := t.recvReply()
	if err != nil {
		t.drop()
		return api.Reply{}, fmt.Errorf("transport: recv: %w", err)
	}
	return reply, nil
}

// Post implements Poster, with maxPosted as its bound.
func (t *tcpConn) Post(call api.Call) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return ErrClosed
	}
	if t.owed == maxPosted {
		r, err := t.collect()
		if err == nil && r.Code != api.Success {
			err = fmt.Errorf("transport: posted call failed: %w", r.Code)
		}
		if err != nil {
			return err
		}
	}
	if err := t.send(call); err != nil {
		return err
	}
	t.owed++
	return nil
}

// send numbers call and writes it; a failure ends the connection.
func (t *tcpConn) send(call api.Call) error {
	t.seq++
	if err := t.w.sendCall(t.seq, call); err != nil {
		t.drop()
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// collect reads the replies owed to posted calls, oldest first. A reply
// that fails the checks ends the connection and is returned as an
// error. The first reply that is not Success is returned: it ends the
// connection too, socket included, so the server lets go of what the
// session held now rather than when the caller closes.
func (t *tcpConn) collect() (api.Reply, error) {
	for t.owed > 0 {
		t.owed--
		r, err := t.recvReply()
		if err != nil {
			t.drop()
			return api.Reply{}, fmt.Errorf("transport: recv: %w", err)
		}
		if r.Code != api.Success {
			_ = t.c.Close()
			t.drop()
			return r, nil
		}
	}
	return api.Reply{}, nil
}

// recvReply reads the next reply due, the one to call t.seq - t.owed:
// the last call sent, or while collect runs, which counts a posted call
// as no longer owed before it reads, the oldest posted one.
func (t *tcpConn) recvReply() (api.Reply, error) {
	seq := t.seq - uint64(t.owed)
	f, err := t.w.read()
	if err != nil {
		return api.Reply{}, err
	}
	if f.kind != api.KindReply || f.parent != 0 {
		return api.Reply{}, fmt.Errorf("kind-%d frame (span parent %d) where a reply was due", f.kind, f.parent)
	}
	if f.seq != seq {
		return api.Reply{}, fmt.Errorf("reply sequence %d for call %d", f.seq, seq)
	}
	return api.DecodeReply(f.body, f.own)
}

// tcpServerConn is the daemon side of a stream connection.
type tcpServerConn struct {
	endpoint
	lastSeq uint64
}

// NewServerConn wraps an accepted net.Conn as the runtime side of a
// connection.
func NewServerConn(c net.Conn) ServerConn {
	return &tcpServerConn{endpoint: endpoint{c: c, w: newWire(c)}}
}

// Recv is where a peer's bytes become a call, and the only place they
// are trusted for anything: a frame that is torn, oversized, of another
// protocol version or an unassigned kind, or whose body does not decode
// exactly, closes the connection — the peer sees EOF instead of waiting
// for a reply that cannot come — and is reported as ErrClosed.
func (t *tcpServerConn) Recv() (api.Call, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return nil, ErrClosed
	}
	f, err := t.w.read()
	var call api.Call
	if err == nil {
		call, err = t.w.decodeCall(f)
	}
	if err == nil {
		t.lastSeq = f.seq
		return call, nil
	}
	_ = t.w.flush() // the replies to the calls before this one
	_ = t.c.Close()
	t.drop()
	if err == io.EOF {
		return nil, ErrClosed
	}
	return nil, fmt.Errorf("%w: %v", ErrClosed, err)
}

// Reply answers the last call. A Success reply with no payload is held
// while the read buffer already holds the client's whole next call, and
// leaves in one Write with the first reply that is not held. No client
// waits on a held reply: a client that waits sends nothing meanwhile —
// a Poster reads its owed replies only before it sends the next frame —
// so the loop works through the calls already buffered and writes at
// the last one. If a reply cannot be sent the client would wait
// forever, so the connection is closed.
func (t *tcpServerConn) Reply(r api.Reply) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return ErrClosed
	}
	hold := r.Code == api.Success && t.w.buffered()
	if err := t.w.sendReply(t.lastSeq, r, hold); err != nil {
		_ = t.c.Close()
		t.drop()
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// flush writes the replies Reply held. Serve calls it before it closes
// the connection.
func (t *tcpServerConn) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		_ = t.w.flush()
	}
}

// Listener accepts runtime connections over TCP.
type Listener struct {
	l net.Listener
}

// Listen starts accepting connections on addr (host:port; use ":0" for
// an ephemeral port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the listener's address, e.g. to advertise an ephemeral
// port.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept blocks for the next incoming connection.
func (l *Listener) Accept() (ServerConn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewServerConn(c), nil
}

// Close stops the listener; a blocked Accept returns an error.
func (l *Listener) Close() error { return l.l.Close() }
