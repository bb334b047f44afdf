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
// round trip through the wire codec (tcp.go), both ends counted. What
// is left is what the decoded value itself is made of: the caller's and
// the decoder's boxing of the call, the kernel-name string and the two
// argument slices. Frames, headers and buffers cost nothing per call.
func TestCodecAllocsPerCall(t *testing.T) {
	client, stop := echoPipe()
	defer stop()
	call := api.LaunchCall{Kernel: "k", PtrArgs: []api.DevPtr{0x1000}, Scalars: []uint64{7}}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := client.Call(call); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("codec round trip: %.1f allocs/call", avg)
	const budget = 5
	if avg > budget {
		t.Errorf("codec round trip allocates %.1f objects/call, budget %d", avg, budget)
	}
}

// TestCodecFirstCallCostsSteadyState: a connection's first round trip
// allocates no more than its hundredth, for every kind of call. Every
// offloaded session (§4.7) is a new connection and most are a few dozen
// calls long, so anything negotiated, compiled or grown per connection
// is a per-call cost in disguise — the reason the gob codec this one
// replaced cost ~430 allocations per session before its first call
// returned.
func TestCodecFirstCallCostsSteadyState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // nothing else allocates meanwhile
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, call := range everyCall {
		call := call
		roundTrip := func(c Conn) func() {
			return func() {
				if _, err := c.Call(call); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Connections before the measured one warm what belongs to the
		// process rather than to a connection (the runtime's goroutine
		// and sudog caches); the minimum over a few drops a stray
		// allocation by the runtime itself.
		first, hundredth := ^uint64(0), ^uint64(0)
		for attempt := 0; attempt < 4; attempt++ {
			client, stop := echoPipe()
			f := mallocs(roundTrip(client))
			for i := 2; i < 100; i++ {
				roundTrip(client)()
			}
			h := mallocs(roundTrip(client))
			stop()
			if attempt > 0 {
				first, hundredth = min(first, f), min(hundredth, h)
			}
		}
		if first > hundredth {
			t.Errorf("%T: first call on a connection allocates %d objects, hundredth %d", call, first, hundredth)
		}
	}
}
