package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/transport"
)

// A received call is the sender's and is not retained past Handle
// (transport.ServerConn); the tests below hold the runtime's retaining
// sites — the §4.6 replay log, the journal's pending kernels — to
// copying what they keep, and check that a torn-down context is
// unreachable.

// sessionCtx returns the runtime's context behind a client's session.
func sessionCtx(t *testing.T, env *testEnv, c *frontend.Client) *Context {
	t.Helper()
	id, err := c.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	env.rt.mu.Lock()
	defer env.rt.mu.Unlock()
	return env.rt.ctxs[id]
}

// TestReplayLogCopiesLaunchArgs: a client reusing its scalar buffer
// after Launch returns must not rewrite the kernel the replay log
// re-runs after a device failure.
func TestReplayLogCopiesLaunchArgs(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	ok(t, c.RegisterFatBinary(testBinary()))
	p, err := c.Malloc(16)
	ok(t, err)
	ok(t, c.MemcpyHD(p, []byte{100}))
	s := []uint64{1}
	ok(t, c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: s}))
	s[0] = 0 // the client reuses its buffer
	for _, ds := range env.rt.deviceList() {
		if ds.activeVGPUs() > 0 {
			env.rt.FailDevice(ds.index)
		}
	}
	ok(t, c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}))
	out, err := c.MemcpyDH(p, 1)
	ok(t, err)
	if out[0] != 102 {
		t.Errorf("data after recovery = %d, want 102: the replay re-ran the client's rewritten arguments", out[0])
	}
}

// TestJournalPendingCopiesLaunchArgs: the journal's pending kernels —
// what a compaction writes and a restart replays — keep the launch as
// it was acknowledged, not as the client's buffer reads later.
func TestJournalPendingCopiesLaunchArgs(t *testing.T) {
	dir := t.TempDir()
	env, j := bootJournaled(t, dir, Config{})
	c := env.client()
	ok(t, c.RegisterFatBinary(testBinary()))
	p, err := c.Malloc(16)
	ok(t, err)
	s := []uint64{3}
	ok(t, c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: s}))
	s[0] = 0
	session, err := c.SessionID()
	ok(t, err)
	shutDown(t, env, j, c) // compacts: the snapshot is written from the pending list
	_, rec := openJournal(t, dir)
	pending := rec.Pending[session]
	if len(pending) != 1 || !slices.Equal(pending[0].Scalars, []uint64{3}) {
		t.Errorf("recovered pending kernels %+v, want one inc with scalars [3]", pending)
	}
}

// TestRetainedCallsSurviveClientMutation sends launches as pointer
// calls and rewrites every field and slice of each one the moment its
// Call returns, while compactions read the journal's pending list on
// another goroutine (run it under -race). The replay log and the
// journal must hold the launches as sent.
func TestRetainedCallsSurviveClientMutation(t *testing.T) {
	dir := t.TempDir()
	env, j := bootJournaled(t, dir, Config{})
	conn, sc := transport.Pipe()
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		env.rt.Serve(sc)
	}()
	c := frontend.Connect(conn)
	defer c.Close()
	ok(t, c.RegisterFatBinary(testBinary()))
	p, err := c.Malloc(16)
	ok(t, err)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopCompacting := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopCompacting()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := j.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	const n = 50
	for i := 0; i < n; i++ {
		call := &api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{uint64(i % 3)}, ReadOnly: []bool{false}}
		r, err := conn.Call(call)
		if err != nil || r.Code != api.Success {
			t.Fatalf("launch %d: %v %v", i, r.Code, err)
		}
		*call = api.LaunchCall{Kernel: "noop", PtrArgs: call.PtrArgs, Scalars: call.Scalars, ReadOnly: call.ReadOnly}
		call.PtrArgs[0], call.Scalars[0], call.ReadOnly[0] = 0, 99, true
	}
	stopCompacting()

	check := func(where string, got []api.LaunchCall) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s holds %d launches, want %d", where, len(got), n)
		}
		for i, k := range got {
			if k.Kernel != "inc" || !slices.Equal(k.PtrArgs, []api.DevPtr{p}) ||
				!slices.Equal(k.Scalars, []uint64{uint64(i % 3)}) || !slices.Equal(k.ReadOnly, []bool{false}) {
				t.Fatalf("%s launch %d = %+v, not as sent", where, i, k)
			}
		}
	}
	ctx := sessionCtx(t, env, c)
	ctx.mu.Lock()
	replay := slices.Clone(ctx.replay)
	ctx.mu.Unlock()
	check("replay log", replay)
	session := ctx.id
	shutDown(t, env, j, c)
	_, rec := openJournal(t, dir)
	check("journal", rec.Pending[session])
}

// TestTornDownContextUnreachable: a context handed a vGPU from the
// waiting list, then torn down, is garbage once its session ends — no
// runtime slice keeps it (and its replay log) in spare capacity.
func TestTornDownContextUnreachable(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1))
	holder, waiter := env.client(), env.client()
	var ps [2]api.DevPtr
	for i, c := range []*frontend.Client{holder, waiter} {
		ok(t, c.RegisterFatBinary(testBinary()))
		p, err := c.Malloc(16)
		ok(t, err)
		ps[i] = p
	}
	ok(t, holder.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{ps[0]}, Scalars: []uint64{1}}))
	wp := weak.Make(sessionCtx(t, env, waiter))
	done := make(chan error, 1)
	go func() { // waits for the holder's vGPU
		done <- waiter.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{ps[1]}, Scalars: []uint64{1}})
	}()
	for waiting := 0; waiting == 0; {
		select {
		case err := <-done:
			t.Fatalf("the launch returned without waiting for the vGPU: %v", err)
		case <-time.After(time.Millisecond):
		}
		env.rt.mu.Lock()
		waiting = len(env.rt.waiting)
		env.rt.mu.Unlock()
	}
	ok(t, holder.Close()) // hands the vGPU to the waiter
	ok(t, <-done)
	ok(t, waiter.Close())
	for deadline := time.Now().Add(5 * time.Second); wp.Value() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("a torn-down context is still reachable")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func ok(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
