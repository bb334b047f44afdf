package core

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/transport"
)

// rawFrame hand-assembles a transport frame (header layout: DESIGN.md
// "Wire format") so a test can say what no encoder would.
func rawFrame(kind api.Kind, length uint32, parent uint64, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, length)
	b = append(b, 1, byte(kind))
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint64(b, parent)
	return append(b, body...)
}

// TestHostilePeerCannotCrashRuntime: the wire decoder is the one place
// a remote peer's bytes enter the daemon. Frames that are well-formed
// but mean nothing — the gob codec decoded their like to a nil call,
// which the dispatcher dereferenced — get their connection closed, on
// the serving path and on the offload proxy alike, and the runtime
// goes on to serve the next connection.
func TestHostilePeerCannotCrashRuntime(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	serve := func(sc transport.ServerConn) { env.rt.HandleConn(sc) }
	proxy := func(sc transport.ServerConn) {
		peer, ps := transport.Pipe()
		env.wg.Add(1)
		go func() { defer env.wg.Done(); env.rt.Serve(ps) }()
		transport.Serve(sc, &hop{peer: peer, parent: 7})
		_ = peer.Close()
	}
	hostile := []struct {
		name  string
		bytes []byte
		eof   bool // the peer hangs up after sending
	}{
		{"kind 0", rawFrame(0, 0, 0, nil), false},
		{"unassigned kind", rawFrame(api.KindStats+1, 4, 0, []byte{1, 2, 3, 4}), false},
		{"span around no call", rawFrame(api.KindSpan, 0, 42, nil), false},
		{"span parent on a bare call", rawFrame(api.KindExit, 0, 42, nil), false},
		{"launch with a lying count", rawFrame(api.KindLaunch, 40, 0, append(make([]byte, 36), 0xFF, 0xFF, 0xFF, 0x0F)), false},
		{"maximum length, then EOF", rawFrame(api.KindMemcpyHD, transport.MaxFrame, 0, nil), true},
	}
	for _, path := range []struct {
		name   string
		handle func(transport.ServerConn)
	}{{"serve", serve}, {"proxy", proxy}} {
		for _, h := range hostile {
			a, b := net.Pipe()
			_ = a.SetDeadline(time.Now().Add(10 * time.Second))
			done := make(chan struct{})
			go func() { defer close(done); path.handle(transport.NewServerConn(b)) }()
			if _, err := a.Write(h.bytes); err != nil {
				t.Fatalf("%s/%s: write: %v", path.name, h.name, err)
			}
			if h.eof {
				a.Close()
			} else if n, err := a.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Errorf("%s/%s: peer read %d bytes, %v; want the connection closed", path.name, h.name, n, err)
			}
			<-done
			a.Close()
		}
	}

	// The next connection — over the same wire — gets a normal session.
	a, b := net.Pipe()
	env.wg.Add(1)
	go func() { defer env.wg.Done(); env.rt.HandleConn(transport.NewServerConn(b)) }()
	c := frontend.Connect(transport.NewClientConn(a))
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if out, err := c.MemcpyDH(p, 1); err != nil || out[0] != 2 {
		t.Fatalf("session after the hostile peers: %v, %v", out, err)
	}
}
