package frontend

import (
	"errors"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/transport"
)

// scriptedServer replies to calls in order from a script and records
// what it saw. A received call is the client's and is not retained, so
// the record is a copy: the call decoded from its own wire encoding.
type scriptedServer struct {
	t       *testing.T
	sc      transport.ServerConn
	seen    []api.Call
	replies []api.Reply
	done    chan struct{}
}

func newScripted(t *testing.T, replies ...api.Reply) (*Client, *scriptedServer) {
	c, sc := transport.Pipe()
	s := &scriptedServer{t: t, sc: sc, replies: replies, done: make(chan struct{})}
	go s.run()
	return Connect(c), s
}

func (s *scriptedServer) run() {
	defer close(s.done)
	for {
		call, err := s.sc.Recv()
		if err != nil {
			return
		}
		body, payload, k, parent := api.AppendCall(nil, call)
		kept, err := api.DecodeCall(k, parent, append(body, payload...), true)
		if err != nil {
			s.t.Errorf("recording %#v: %v", call, err)
		}
		s.seen = append(s.seen, kept)
		var r api.Reply
		if len(s.replies) > 0 {
			r = s.replies[0]
			s.replies = s.replies[1:]
		}
		if err := s.sc.Reply(r); err != nil {
			return
		}
	}
}

func TestClientMapsReplies(t *testing.T) {
	c, s := newScripted(t,
		api.Reply{Ptr: 0x42},                     // Malloc
		api.Reply{},                              // MemcpyHD
		api.Reply{Data: []byte{7, 8}},            // MemcpyDH
		api.Reply{Count: 12},                     // DeviceCount
		api.Reply{},                              // Synchronize
		api.Reply{Code: api.ErrMemoryAllocation}, // Malloc again
		api.Reply{},                              // Exit
	)
	p, err := c.Malloc(100)
	if err != nil || p != 0x42 {
		t.Errorf("Malloc = %#x, %v", p, err)
	}
	if err := c.MemcpyHD(p, []byte{1}); err != nil {
		t.Errorf("MemcpyHD: %v", err)
	}
	data, err := c.MemcpyDH(p, 2)
	if err != nil || len(data) != 2 {
		t.Errorf("MemcpyDH = %v, %v", data, err)
	}
	n, err := c.DeviceCount()
	if err != nil || n != 12 {
		t.Errorf("DeviceCount = %d, %v", n, err)
	}
	if err := c.Synchronize(); err != nil {
		t.Errorf("Synchronize: %v", err)
	}
	if _, err := c.Malloc(1 << 40); !errors.Is(err, api.ErrMemoryAllocation) {
		t.Errorf("failing Malloc err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	<-s.done

	wantCalls := []string{"cudaMalloc", "cudaMemcpyHtoD", "cudaMemcpyDtoH",
		"cudaGetDeviceCount", "cudaDeviceSynchronize", "cudaMalloc", "gvrtExit"}
	if len(s.seen) != len(wantCalls) {
		t.Fatalf("server saw %d calls, want %d", len(s.seen), len(wantCalls))
	}
	for i, w := range wantCalls {
		if s.seen[i].CallName() != w {
			t.Errorf("call %d = %s, want %s", i, s.seen[i].CallName(), w)
		}
	}
}

func TestClientSendsExitOnClose(t *testing.T) {
	c, s := newScripted(t, api.Reply{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-s.done
	if len(s.seen) != 1 || s.seen[0].CallName() != "gvrtExit" {
		t.Errorf("server saw %v, want exactly gvrtExit", s.seen)
	}
	// Closing twice is safe and sends nothing more.
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestClientAfterClose(t *testing.T) {
	c, _ := newScripted(t, api.Reply{})
	_ = c.Close()
	if _, err := c.Malloc(1); !errors.Is(err, api.ErrConnectionClosed) {
		t.Errorf("Malloc after Close err = %v", err)
	}
	if err := c.Synchronize(); !errors.Is(err, api.ErrConnectionClosed) {
		t.Errorf("Synchronize after Close err = %v", err)
	}
}

func TestClientTornConnection(t *testing.T) {
	conn, sc := transport.Pipe()
	c := Connect(conn)
	_ = sc.Close() // server vanishes
	if _, err := c.Malloc(1); !errors.Is(err, api.ErrConnectionClosed) {
		t.Errorf("Malloc on torn conn err = %v", err)
	}
}

func TestClientSyntheticAndNestedCalls(t *testing.T) {
	c, s := newScripted(t, api.Reply{}, api.Reply{}, api.Reply{}, api.Reply{}, api.Reply{})
	if err := c.MemcpyHDSynthetic(1, 999); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyDD(2, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterNested(5, []api.DevPtr{6}, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDevice(3); err != nil {
		t.Fatal(err)
	}
	hd := s.seen[0].(*api.MemcpyHDCall)
	if hd.Data != nil || hd.Size != 999 {
		t.Errorf("synthetic MemcpyHD = %+v", hd)
	}
	dd := s.seen[1].(*api.MemcpyDDCall)
	if dd.Dst != 2 || dd.Src != 3 || dd.Size != 4 {
		t.Errorf("MemcpyDD = %+v", dd)
	}
	nested := s.seen[2].(*api.RegisterNestedCall)
	if nested.Parent != 5 || len(nested.Members) != 1 {
		t.Errorf("RegisterNested = %+v", nested)
	}
	c.Close()
}

func TestClientLaunchPassthrough(t *testing.T) {
	c, s := newScripted(t, api.Reply{})
	call := api.LaunchCall{
		Kernel: "k", Grid: api.Dim3{X: 4}, Block: api.Dim3{X: 64},
		PtrArgs: []api.DevPtr{1, 2}, Scalars: []uint64{9}, Repeat: 3,
		ReadOnly: []bool{true, false},
	}
	if err := c.Launch(call); err != nil {
		t.Fatal(err)
	}
	got := s.seen[0].(*api.LaunchCall)
	if got.Kernel != "k" || got.Repeat != 3 || len(got.PtrArgs) != 2 || !got.ReadOnly[0] {
		t.Errorf("launch mangled: %+v", got)
	}
	c.Close()
}
