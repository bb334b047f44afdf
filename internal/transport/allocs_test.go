package transport

import (
	"net"
	"runtime"
	"testing"

	"gvrt/internal/api"
)

// echoPipe returns the client end of a fresh net.Pipe connection whose
// server end answers every call with an empty reply, and a function
// that closes it and waits for the server goroutine.
func echoPipe() (Conn, func()) {
	cc, sc := net.Pipe()
	client, server := NewClientConn(cc), NewServerConn(sc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
			if err := server.Reply(api.Reply{Code: api.Success}); err != nil {
				return
			}
		}
	}()
	return client, func() { _ = client.Close(); <-done }
}

// TestCodecAllocsPerCall pins the allocation cost of one call/reply
// round trip through the wire codec (tcp.go), both ends counted.
// Frames, headers and buffers cost nothing per call. A repeated call —
// an offloaded session's copies and launches — costs nothing at all:
// the server's memo hands back the pointer it decoded the first time. A
// call that differs every time costs what the decoded value is made
// of: the caller's and the decoder's call, the kernel-name string and
// the two argument slices. Both send the pointer form, as a client does.
func TestCodecAllocsPerCall(t *testing.T) {
	client, stop := echoPipe()
	defer stop()
	scalars := []uint64{7}
	var repeated api.Call = &api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{0x1000}, Scalars: []uint64{7}}
	for _, tc := range []struct {
		name   string
		budget float64
		call   func() api.Call
	}{
		{"repeated", 0, func() api.Call { return repeated }},
		{"varying", 5, func() api.Call {
			scalars[0]++
			return &api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{0x1000}, Scalars: scalars}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(200, func() {
				if _, err := client.Call(tc.call()); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("codec round trip: %.1f allocs/call", avg)
			if avg > tc.budget {
				t.Errorf("codec round trip allocates %.1f objects/call, budget %.0f", avg, tc.budget)
			}
		})
	}
}

// TestPostAllocs: a steady-state post costs nothing, both ends counted
// — the frame written, and at the bound the owed replies collected.
func TestPostAllocs(t *testing.T) {
	c, _ := tcpServe(t, handlerFunc(func(api.Call) (api.Reply, bool) { return api.Reply{}, false }))
	var call api.Call = &api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{0x1000}, Scalars: []uint64{7}}
	post := func() {
		if err := c.Post(call); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*maxPosted; i++ {
		post()
	}
	avg := testing.AllocsPerRun(4*maxPosted, post)
	t.Logf("post: %.2f allocs", avg)
	if avg > 0 {
		t.Errorf("a post allocates %.2f objects, budget 0", avg)
	}
}

// TestCodecFirstCallCostsSteadyState: a connection's first frame of
// each kind allocates no more than a later frame of that kind which
// the memo does not hold. Every offloaded session (§4.7) is a new
// connection and most are a few dozen calls long, so anything
// negotiated, compiled or grown per connection is a per-call cost in
// disguise — the reason the gob codec this one replaced cost ~430
// allocations per session before its first call returned.
func TestCodecFirstCallCostsSteadyState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // nothing else allocates meanwhile
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	roundTrip := func(c Conn, call api.Call) func() {
		return func() {
			if _, err := c.Call(call); err != nil {
				t.Fatal(err)
			}
		}
	}
	filler := uint64(1 << 40)
	for _, call := range everyCall {
		// Connections before the measured one warm what belongs to the
		// process rather than to a connection (the runtime's goroutine
		// and sudog caches, the wire pool); the minimum over a few drops
		// a stray allocation by the runtime itself.
		first, later := ^uint64(0), ^uint64(0)
		for attempt := 0; attempt < 4; attempt++ {
			client, stop := echoPipe()
			f := mallocs(roundTrip(client, call))
			for i := 2; i < 100; i++ {
				roundTrip(client, call)()
			}
			for i := 0; i < memoSize; i++ { // push call out of the memo
				filler++
				roundTrip(client, api.MallocCall{Size: filler})()
			}
			l := mallocs(roundTrip(client, call))
			stop()
			if attempt > 0 {
				first, later = min(first, f), min(later, l)
			}
		}
		if first > later {
			t.Errorf("%T: first call on a connection allocates %d objects, a later miss %d", call, first, later)
		}
	}
}
