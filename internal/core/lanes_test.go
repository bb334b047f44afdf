package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/memmgr"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// laneSession is one session of the lane tests: register, join tenant,
// allocate, iters × (copy, launch), one read-back, free, exit. It
// returns the calls it issued by CUDA-level name.
func laneSession(t testing.TB, c *frontend.Client, tenant string, iters int) map[string]int64 {
	n := map[string]int64{}
	do := func(name string, err error) {
		n[name]++
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	do("__cudaRegisterFatBinary", c.RegisterFatBinary(testBinary()))
	do("gvrtSetTenant", c.SetTenant(tenant))
	p, err := c.Malloc(4 << 10)
	do("cudaMalloc", err)
	for i := 0; i < iters; i++ {
		do("cudaMemcpyHtoD", c.MemcpyHD(p, []byte{byte(i), 2, 3}))
		do("cudaLaunch", c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}))
	}
	_, err = c.MemcpyDH(p, 3) // checkpoints first: a logged kernel wrote p
	do("cudaMemcpyDtoH", err)
	do("cudaFree", c.Free(p))
	do("gvrtExit", c.Close())
	return n
}

// TestLaneConservation runs sessions from several goroutines at once
// against one runtime, with as many lanes as a runtime may have, and
// checks that summing the lanes gives back exactly what was issued:
// calls served, each call kind's histogram count, the tenants' calls
// and launches, node GPU time against the tenants' (attribution
// conservation) and checkpoint bytes likewise. Every lane's occupancy
// is back to 0 once the sessions have exited.
func TestLaneConservation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(trace.MaxLanes))
	env := newEnv(t, Config{Leases: leaseTable()}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	if got := len(env.rt.laneUse); got != trace.MaxLanes {
		t.Fatalf("lanes = %d, want %d", got, trace.MaxLanes)
	}
	const goroutines, sessions, iters = 6, 8, 5
	tenants := [2]string{"lane-a", "lane-b"}
	var mu sync.Mutex
	byKind := map[string]int64{}
	var tenantCalls, tenantLaunches [2]int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sessions; s++ {
				n := laneSession(t, env.client(), tenants[g%2], iters)
				mu.Lock()
				for k, v := range n {
					byKind[k] += v
					if k != "__cudaRegisterFatBinary" { // served before the session joined
						tenantCalls[g%2] += v
					}
				}
				tenantLaunches[g%2] += n["cudaLaunch"]
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for i := range env.rt.laneUse {
		if n := env.rt.laneUse[i].Load(); n != 0 {
			t.Errorf("lane %d occupancy = %d after every session exited, want 0", i, n)
		}
	}
	m := env.rt.Metrics()
	var issued int64
	for k, v := range byKind {
		issued += v
		if got := m.Histograms[trace.CallFamily.Key+k].Count; got != v {
			t.Errorf("%s histogram count = %d, want %d", k, got, v)
		}
	}
	if m.CallsServed != issued {
		t.Errorf("CallsServed = %d, want %d issued", m.CallsServed, issued)
	}
	var gpu, ckpt int64
	for i, name := range tenants {
		u := m.Tenants[name]
		gpu += u.GPUTimeNS
		ckpt += u.CheckpointBytes
		if u.Calls != tenantCalls[i] || u.Launches != tenantLaunches[i] {
			t.Errorf("tenant %s: calls %d launches %d, want %d and %d", name, u.Calls, u.Launches, tenantCalls[i], tenantLaunches[i])
		}
		if u.Launch.Count != tenantLaunches[i] {
			t.Errorf("tenant %s: launch histogram count %d, want %d", name, u.Launch.Count, tenantLaunches[i])
		}
	}
	if m.GPUTimeNS == 0 || m.GPUTimeNS != gpu {
		t.Errorf("node GPU time %d, tenants' sum %d: attribution not conserved", m.GPUTimeNS, gpu)
	}
	if m.Memory.CheckpointBytes == 0 || m.Memory.CheckpointBytes != ckpt {
		t.Errorf("node checkpoint bytes %d, tenants' sum %d", m.Memory.CheckpointBytes, ckpt)
	}
	// Every copy after the first launch and the read-back checkpoint.
	if want := int64(goroutines * sessions * iters); m.Memory.Checkpoints != want {
		t.Errorf("checkpoints = %d, want %d", m.Memory.Checkpoints, want)
	}
}

// TestLaneReleasedAtExit pins where a lane is given back: when the Exit
// is served, before the session's teardown runs beside the client's
// next session. So one client's sessions, opened one after another
// while another client's session stays open, always take the lane the
// last one left, never the other client's.
func TestLaneReleasedAtExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	// Every teardown stalls until the test ends, so only a lane given back
	// at Exit is free for the next session.
	stall := stalledTeardowns(make(chan struct{}))
	defer close(stall)
	env.rt.mm.SetObserver(stall)
	b := env.client()
	defer b.Close()
	if err := b.SetTenant("x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a := env.client()
		if err := a.SetTenant("x"); err != nil { // a call: the context exists
			t.Fatal(err)
		}
		if u0, u1 := env.rt.laneUse[0].Load(), env.rt.laneUse[1].Load(); u0 != 1 || u1 != 1 {
			t.Fatalf("session %d: lanes hold %d and %d sessions, want one each", i, u0, u1)
		}
		a.Close()
		if u := env.rt.laneUse[0].Load() + env.rt.laneUse[1].Load(); u != 1 {
			t.Fatalf("session %d: occupancy %d once its Exit was served, want 1", i, u)
		}
	}
}

// TestPublishedContextHasSpace: a context appears in rt.ctxs only once
// its memmgr Space is set, so whoever finds it there under rt.mu may
// read the Space's usage.
func TestPublishedContextHasSpace(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	rt := env.rt
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			rt.newContext()
		}
	}()
	var spaces []*memmgr.Space
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		spaces = spaces[:0]
		rt.mu.Lock()
		for id, ctx := range rt.ctxs {
			if ctx.space == nil {
				rt.mu.Unlock()
				<-done
				t.Fatalf("ctx %d published without its Space", id)
			}
			spaces = append(spaces, ctx.space)
		}
		rt.mu.Unlock()
		for _, sp := range spaces {
			if u := sp.Usage(); u != 0 {
				t.Fatalf("fresh context's Space holds %d bytes", u)
			}
		}
	}
}

// TestResumedContextHasSpace: a resumed context appears under its
// session's ID in rt.ctxs only once the session's Space is set, so
// whoever finds it there under rt.mu reads that Space without racing
// the resume. Run under -race: the reader reads the Space of the context
// it finds under the session's ID, and nothing but rt.mu orders that read
// after the resume's write.
func TestResumedContextHasSpace(t *testing.T) {
	env, session := restartedWithOrphan(t, []byte{7})
	rt := env.rt
	seen, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for found := false; ; {
			select {
			case <-stop:
				return
			default:
			}
			rt.mu.Lock()
			ctx := rt.ctxs[session]
			var sp *memmgr.Space
			if ctx != nil {
				sp = ctx.space
			}
			rt.mu.Unlock()
			if ctx != nil && sp == nil {
				t.Errorf("session %d published without its Space", session)
			}
			if sp != nil {
				_ = sp.Usage()
				if !found {
					found = true
					close(seen)
				}
			}
			runtime.Gosched()
		}
	}()
	c := env.client()
	defer c.Close()
	if err := c.Resume(session); err != nil {
		t.Fatal(err)
	}
	<-seen
	close(stop)
	<-done
}

// stalledTeardowns is a memmgr.Observer that holds every context's
// teardown in ContextReleased until it is closed.
type stalledTeardowns chan struct{}

func (stalledTeardowns) EntryWritten(int64, memmgr.EntryImage, uint64) {}
func (stalledTeardowns) EntryFreed(int64, api.DevPtr)                  {}
func (s stalledTeardowns) ContextReleased(int64)                       { <-s }

// TestHandlerPanicClosesOnlyItsConnection: over TCP, a session whose
// call panics inside the runtime loses its own connection, the panic is
// reported as an event, and another session on the same daemon runs to
// completion.
func TestHandlerPanicClosesOnlyItsConnection(t *testing.T) {
	var once sync.Once
	notes := make(chan string, 16)
	cfg := Config{OnEvent: func(e trace.Event) {
		switch {
		case e.Kind == trace.KindBind:
			once.Do(func() { panic("injected handler fault") }) // the first bind only
		case e.Kind == trace.KindNote:
			notes <- e.Detail
		}
	}}
	env := newEnv(t, cfg, smallSpec(1<<20, 1))
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			env.wg.Add(1)
			go func() {
				defer env.wg.Done()
				env.rt.HandleConn(sc)
			}()
		}
	}()
	dial := func() *frontend.Client {
		conn, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return frontend.Connect(conn)
	}

	victim := dial()
	if err := victim.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := victim.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// The launch binds, and the bind event panics on the serving goroutine.
	if err := victim.Launch(api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{p}}); err == nil {
		t.Fatal("launch on the panicking connection succeeded")
	}
	select {
	case d := <-notes:
		if !strings.Contains(d, "injected handler fault") {
			t.Fatalf("note %q does not name the panic", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event reported the handler panic")
	}

	other := dial()
	n := laneSession(t, other, "survivor", 3)
	if n["cudaLaunch"] != 3 {
		t.Fatalf("surviving session issued %v", n)
	}
	if u := env.rt.TenantAttribution()["survivor"]; u.Launches != 3 {
		t.Errorf("surviving session's launches = %d, want 3", u.Launches)
	}
	if err := victim.Free(p); err == nil { // the victim's connection is gone
		t.Error("a call on the closed connection succeeded")
	}
}

// BenchmarkConcurrentSessions is ns per call with one closed-loop
// client per processor against one runtime, each running
// pipe-dispatch's sessions (benchmark/workloads.go) over pipes: the
// same devices, lease fence, tenant quota and clock scale, and the same
// 47 calls per session. Run it with -cpu 1,2 to see how the per-call
// cost scales with the cores serving it.
func BenchmarkConcurrentSessions(b *testing.B) {
	clock := sim.NewClock(1e-9)
	crt := cudart.New(clock, gpu.NewDevice(0, gpu.TeslaC2050, clock),
		gpu.NewDevice(1, gpu.TeslaC2050, clock), gpu.NewDevice(2, gpu.TeslaC1060, clock))
	rt, err := New(crt, Config{Leases: failover.NewTable(0, clock.Now)})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.ApplyQuota("bench", 1<<20, 1<<50); err != nil {
		b.Fatal(err)
	}
	bin := api.FatBinary{ID: "bench", Kernels: []api.KernelMeta{{Name: "spin", BaseTime: 50 * time.Microsecond}}}
	var served sync.WaitGroup
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for more := true; more; {
			c, s := transport.Pipe()
			served.Add(1)
			go func() {
				defer served.Done()
				rt.HandleConn(s)
			}()
			cl := frontend.Connect(c)
			_ = cl.RegisterFatBinary(bin)
			_ = cl.SetTenant("bench")
			a, _ := cl.Malloc(256 << 10)
			p, _ := cl.Malloc(256 << 10)
			launch := api.LaunchCall{Kernel: "spin", Grid: api.Dim3{X: 32}, Block: api.Dim3{X: 128}, PtrArgs: []api.DevPtr{a, p}}
			for i := 0; i < 40 && more; i++ {
				if more = pb.Next(); i%2 == 0 {
					_ = cl.MemcpyHDSynthetic(a, 256<<10)
				} else {
					_ = cl.Launch(launch)
				}
			}
			_ = cl.Free(a)
			_ = cl.Free(p)
			_ = cl.Close()
		}
	})
	served.Wait()
}
