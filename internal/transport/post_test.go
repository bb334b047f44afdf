package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
)

// tcpServe dials a loopback listener whose one connection Serve answers
// with h. served is closed once Serve has returned.
func tcpServe(t testing.TB, h Handler) (c *tcpConn, served <-chan struct{}) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc, err := l.Accept()
		if err != nil {
			return
		}
		if err := Serve(sc, h); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conn, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = conn.Close()
		_ = l.Close()
		<-done
	})
	return conn.(*tcpConn), done
}

// within fails t unless ch is closed or receives before a generous
// deadline.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after 10s", what)
	}
}

// cat joins frames into a fresh slice.
func cat(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// TestPostRepliesCollectedInOrder: posts are written without waiting,
// the server handles them in order, and the next Call collects their
// replies before returning its own.
func TestPostRepliesCollectedInOrder(t *testing.T) {
	const n = 10
	got := make(chan uint64, n)
	c, _ := tcpServe(t, handlerFunc(func(call api.Call) (api.Reply, bool) {
		switch call := api.Lift(call).(type) {
		case *api.LaunchCall:
			got <- call.Scalars[0]
		case *api.MallocCall:
			return api.Reply{Ptr: 42}, false
		}
		return api.Reply{}, false
	}))
	for i := uint64(0); i < n; i++ {
		if err := c.Post(&api.LaunchCall{Kernel: "k", Scalars: []uint64{i}}); err != nil {
			t.Fatalf("Post %d: %v", i, err)
		}
	}
	if c.owed != n {
		t.Fatalf("%d replies owed after %d posts", c.owed, n)
	}
	if r, err := c.Call(&api.MallocCall{Size: 1}); err != nil || r.Ptr != 42 {
		t.Fatalf("Call after posts = %+v, %v; want its own reply", r, err)
	}
	if c.owed != 0 {
		t.Errorf("%d replies still owed after a Call", c.owed)
	}
	for i := uint64(0); i < n; i++ {
		if v := <-got; v != i {
			t.Fatalf("server handled post %d as number %d", v, i)
		}
	}
}

// TestPostBadOwedReplyEndsConnection: an owed reply that is misnumbered,
// torn or not a reply at all ends the connection, and the Call that
// collected it is never sent.
func TestPostBadOwedReplyEndsConnection(t *testing.T) {
	for name, replies := range map[string][]byte{
		"misnumbered": cat(replyFrame(t, 1, api.Reply{}), replyFrame(t, 3, api.Reply{})),
		"torn":        cat(replyFrame(t, 1, api.Reply{}), replyFrame(t, 2, api.Reply{})[:headerLen+3]),
		"a call":      cat(replyFrame(t, 1, api.Reply{}), callFrame(t, 2, api.ExitCall{})),
	} {
		in := &memConn{in: bytes.NewReader(replies)}
		c := NewClientConn(in).(*tcpConn)
		for i := 0; i < 2; i++ {
			if err := c.Post(&api.FreeCall{Ptr: 1}); err != nil {
				t.Fatalf("%s: Post: %v", name, err)
			}
		}
		if _, err := c.Call(&api.SynchronizeCall{}); err == nil || errors.Is(err, ErrClosed) {
			t.Errorf("%s: Call collecting it = %v, want a recv error", name, err)
		}
		if in.writes != 2 {
			t.Errorf("%s: %d frames written, want the 2 posts only", name, in.writes)
		}
		if _, err := c.Call(&api.SynchronizeCall{}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Call after it = %v, want ErrClosed", name, err)
		}
		if err := c.Post(&api.FreeCall{Ptr: 1}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Post after it = %v, want ErrClosed", name, err)
		}
	}
}

// TestPostAtBoundCollectsFirst: up to maxPosted posts read nothing; the
// next one collects every owed reply before it is written. A failure
// among them is that Post's error, and the post is not written.
func TestPostAtBoundCollectsFirst(t *testing.T) {
	for _, failAt := range []uint64{0, 5} {
		var replies []byte
		for seq := uint64(1); seq <= maxPosted; seq++ {
			var r api.Reply
			if seq == failAt {
				r.Code = api.ErrInvalidDevicePointer
			}
			replies = append(replies, replyFrame(t, seq, r)...)
		}
		in := &memConn{in: bytes.NewReader(replies)}
		c := NewClientConn(in).(*tcpConn)
		launch := &api.LaunchCall{Kernel: "k"}
		for i := 0; i < maxPosted; i++ {
			if err := c.Post(launch); err != nil {
				t.Fatalf("Post %d: %v", i, err)
			}
		}
		if in.in.Len() != len(replies) {
			t.Fatalf("posts under the bound read %d reply bytes", len(replies)-in.in.Len())
		}
		err := c.Post(launch)
		if failAt == 0 {
			if err != nil || in.in.Len() != 0 || c.owed != 1 || in.writes != maxPosted+1 {
				t.Errorf("post past the bound = %v with %d reply bytes unread, %d owed, %d written; want nil, 0, 1, %d",
					err, in.in.Len(), c.owed, in.writes, maxPosted+1)
			}
			continue
		}
		if !errors.Is(err, api.ErrInvalidDevicePointer) || in.writes != maxPosted || !in.closed {
			t.Errorf("post past a failed one = %v after %d writes (closed %v); want the failure, %d writes, closed",
				err, in.writes, in.closed, maxPosted)
		}
		if err := c.Post(launch); !errors.Is(err, ErrClosed) {
			t.Errorf("Post after a posted failure = %v, want ErrClosed", err)
		}
	}
}

// TestPostDeferredFailure: a posted call that fails is the next Call's
// reply; that Call is never sent, the connection ends — the server sees
// it end at once — and every later call gets ErrClosed.
func TestPostDeferredFailure(t *testing.T) {
	handled := make(chan api.Call, 8)
	c, served := tcpServe(t, handlerFunc(func(call api.Call) (api.Reply, bool) {
		handled <- call
		if l, ok := api.Lift(call).(*api.LaunchCall); ok && l.Scalars[0] == 1 {
			return api.Reply{Code: api.ErrInvalidDevicePointer}, false
		}
		return api.Reply{}, false
	}))
	for i := uint64(0); i < 3; i++ {
		if err := c.Post(&api.LaunchCall{Kernel: "k", Scalars: []uint64{i}}); err != nil {
			t.Fatalf("Post %d: %v", i, err)
		}
	}
	r, err := c.Call(&api.MemcpyDHCall{Src: 1, Size: 4})
	if err != nil || r.Code != api.ErrInvalidDevicePointer {
		t.Fatalf("Call after a failed post = %+v, %v; want the post's ErrInvalidDevicePointer", r, err)
	}
	within(t, served, "server after the deferred failure")
	if n := len(handled); n != 3 {
		t.Errorf("server handled %d calls, want the 3 posts", n)
	}
	if _, err := c.Call(&api.SynchronizeCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after the deferred failure = %v, want ErrClosed", err)
	}
	if err := c.Post(&api.FreeCall{Ptr: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Post after the deferred failure = %v, want ErrClosed", err)
	}
}

// TestPostedPayloadOutlivesCallerBuffer: Post keeps nothing of the call,
// so a caller that overwrites its buffer once Post returns still lands
// the bytes it posted — in the read buffer and past it.
func TestPostedPayloadOutlivesCallerBuffer(t *testing.T) {
	got := make(chan []byte, 1)
	c, _ := tcpServe(t, handlerFunc(func(call api.Call) (api.Reply, bool) {
		if hd, ok := api.Lift(call).(*api.MemcpyHDCall); ok {
			got <- bytes.Clone(hd.Data)
		}
		return api.Reply{}, false
	}))
	for _, n := range []int{100, 3 * readBuf} {
		buf := bytes.Repeat([]byte{0xA5}, n)
		call := &api.MemcpyHDCall{Dst: 1, Data: buf}
		if err := c.Post(call); err != nil {
			t.Fatal(err)
		}
		clear(buf)
		call.Data = nil
		if _, err := c.Call(&api.SynchronizeCall{}); err != nil {
			t.Fatal(err)
		}
		if data := <-got; !bytes.Equal(data, bytes.Repeat([]byte{0xA5}, n)) {
			t.Errorf("%d-byte post landed as % x…", n, data[:8])
		}
	}
}

// TestCloseWithPostsOutstanding: Close does not wait for owed replies,
// and the server's loop ends after it.
func TestCloseWithPostsOutstanding(t *testing.T) {
	release := make(chan struct{})
	c, served := tcpServe(t, handlerFunc(func(api.Call) (api.Reply, bool) {
		<-release
		return api.Reply{}, false
	}))
	for i := 0; i < 8; i++ {
		if err := c.Post(&api.LaunchCall{Kernel: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		_ = c.Close()
		close(closed)
	}()
	within(t, closed, "Close with posts outstanding")
	close(release)
	within(t, served, "server after the close")
	if _, err := c.Call(&api.SynchronizeCall{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close = %v, want ErrClosed", err)
	}
}
