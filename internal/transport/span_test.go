package transport

import (
	"testing"

	"gvrt/internal/api"
)

// TestWithSpanOverTCP proves the span-carrying wrapper survives the
// wire intact: the server sees a WithSpan holding the original call
// and parent ID. This is the mechanism by which an
// offload hop propagates its causal parent to the peer.
func TestWithSpanOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	got := make(chan api.Call, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		call, err := s.Recv()
		if err != nil {
			return
		}
		got <- call
		s.Reply(api.Reply{})
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inner := api.LaunchCall{Kernel: "k", Repeat: 3}
	if _, err := c.Call(api.WithSpan{Parent: 42, Call: inner}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	w, ok := (<-got).(api.WithSpan)
	if !ok {
		t.Fatal("server did not receive a WithSpan")
	}
	if w.Parent != 42 {
		t.Errorf("parent = %d, want 42", w.Parent)
	}
	lc, ok := w.Call.(*api.LaunchCall)
	if !ok || lc.Kernel != "k" || lc.Repeat != 3 {
		t.Errorf("wrapped call = %#v", w.Call)
	}
}
