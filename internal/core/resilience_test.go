package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// TestOffloadDialFailureFallsBackLocal covers the connection manager's
// degraded path: the load signal says offload, but the peer dial fails —
// the connection must be served locally and the admission counter must
// stay balanced.
func TestOffloadDialFailureFallsBackLocal(t *testing.T) {
	var dials atomic.Int64
	env := newEnv(t, Config{
		VGPUsPerDevice:   1,
		OffloadThreshold: 1,
		PeerDial: func() (transport.Conn, error) {
			dials.Add(1)
			return nil, errors.New("peer unreachable")
		},
	}, smallSpec(1<<20, 1))

	// Two resident contexts push the projected queue over the
	// threshold for the next arrival.
	c1, c2 := env.client(), env.client()
	defer c1.Close()
	defer c2.Close()
	if _, err := c1.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Malloc(64); err != nil {
		t.Fatal(err)
	}

	// The third connection goes through HandleConn: offload is chosen,
	// the dial fails, and the connection falls back to local service.
	pc, ps := transport.Pipe()
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		env.rt.HandleConn(ps)
	}()
	c3 := frontend.Connect(pc)
	if err := c3.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c3.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.MemcpyHD(p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c3.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	out, err := c3.MemcpyDH(p, 1)
	if err != nil || out[0] != 2 {
		t.Fatalf("local-fallback app result = %v, %v; want [2]", out, err)
	}
	c3.Close()

	if dials.Load() == 0 {
		t.Error("offload dial never attempted")
	}
	if got := env.rt.Metrics().Offloaded; got != 0 {
		t.Errorf("Offloaded = %d, want 0 (dial failed)", got)
	}
	// The fallback path must keep the admitted counter balanced once the
	// connection finishes.
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.admitted.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := env.rt.admitted.Load(); got != 0 {
		t.Errorf("admitted = %d after all connections closed, want 0", got)
	}
}

// TestOffloadPeerDiesMidSession: when the peer serving an offloaded
// session goes away, the application's next call is answered with
// ErrConnectionClosed, the head's HandleConn returns, and the
// connection is closed behind it.
func TestOffloadPeerDiesMidSession(t *testing.T) {
	envB := newEnv(t, Config{}, smallSpec(1<<20, 1))
	peerEnd := make(chan transport.ServerConn, 1)
	envA := newEnv(t, Config{
		VGPUsPerDevice:   1,
		OffloadThreshold: 1,
		PeerDial: func() (transport.Conn, error) {
			c, s := transport.Pipe()
			peerEnd <- s
			envB.wg.Add(1)
			go func() { defer envB.wg.Done(); envB.rt.Serve(s) }()
			return c, nil
		},
	}, smallSpec(1<<20, 1))
	// A resident context puts the next arrival over the threshold.
	ballast := envA.client()
	defer ballast.Close()
	if _, err := ballast.Malloc(64); err != nil {
		t.Fatal(err)
	}

	pc, ps := transport.Pipe()
	handled := make(chan struct{})
	go func() { defer close(handled); envA.rt.HandleConn(ps) }()
	if r, err := pc.Call(api.MallocCall{Size: 16}); err != nil || r.Code != api.Success {
		t.Fatalf("offloaded Malloc = %+v, %v", r, err)
	}
	if got := envA.rt.Metrics().Offloaded; got != 1 {
		t.Fatalf("Offloaded = %d, want 1", got)
	}
	_ = (<-peerEnd).Close() // the peer dies
	if r, err := pc.Call(api.MallocCall{Size: 16}); err != nil || r.Code != api.ErrConnectionClosed {
		t.Fatalf("call after the peer died = %+v, %v; want an ErrConnectionClosed reply", r, err)
	}
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("HandleConn still serving a session whose peer died")
	}
	if _, err := pc.Call(api.MallocCall{Size: 16}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("call on the dead session err = %v, want transport.ErrClosed", err)
	}
}

// TestDeviceReadmission drives the full self-healing arc: a device
// fails mid-workload, the fault clears (operator restore), and the
// health monitor re-admits the device — fresh vGPUs, a Readmissions
// tick and a device-level recovery trace event.
func TestDeviceReadmission(t *testing.T) {
	rec := trace.NewRecorder(256)
	env := newEnv(t, Config{VGPUsPerDevice: 2, Trace: rec}, smallSpec(1<<20, 1))
	dev := env.crt.Device(0)

	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	// The sticky fault: every Exec/Malloc fails until Restore.
	dev.Fail()
	// The failure is noticed at the next launch; with the only device
	// down, the launch dies with a resource error.
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err == nil {
		t.Fatal("launch on a failed device succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.Metrics().DeviceFailures == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if env.rt.Metrics().DeviceFailures == 0 {
		t.Fatal("device failure never registered")
	}

	// The fault clears; the health monitor must notice and re-admit.
	dev.Restore()
	deadline = time.Now().Add(10 * time.Second)
	for env.rt.Metrics().Readmissions == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if env.rt.Metrics().Readmissions == 0 {
		t.Fatal("restored device never re-admitted")
	}

	found := false
	for _, e := range rec.Filter(trace.KindRecovery) {
		if e.Device == 0 && e.Detail == "device re-admitted" {
			found = true
		}
	}
	if !found {
		t.Error("no device-level recovery event in the trace")
	}

	// The re-admitted device serves fresh work end to end.
	c2 := env.client()
	defer c2.Close()
	if err := c2.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.MemcpyHD(p2, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p2}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p2, 1)
	if err != nil || out[0] != 6 {
		t.Fatalf("post-readmission result = %v, %v; want [6]", out, err)
	}
}

// TestDrainShedsNewConnections: once the node drains, a connection
// through HandleConn is refused fast. Every call but Exit is answered
// with the transient ErrOverloaded, Exit ends the connection, and the
// refusal is counted and traced once. A session opened before the drain
// keeps running.
func TestDrainShedsNewConnections(t *testing.T) {
	rec := trace.NewRecorder(64)
	env := newEnv(t, Config{Trace: rec}, smallSpec(1<<20, 1))
	live := env.client()
	defer live.Close()
	if _, err := live.Malloc(64); err != nil {
		t.Fatal(err)
	}
	env.rt.BeginDrain()

	pc, ps := transport.Pipe()
	defer pc.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		env.rt.HandleConn(ps)
	}()
	c := frontend.Connect(pc)
	if err := c.RegisterFatBinary(testBinary()); api.Code(err) != api.ErrOverloaded {
		t.Fatalf("call on a connection refused while draining = %v, want ErrOverloaded", err)
	}
	if _, err := c.Malloc(16); api.Code(err) != api.ErrOverloaded {
		t.Fatalf("second call on the refused connection = %v, want ErrOverloaded", err)
	}
	if r, err := pc.Call(&api.ExitCall{}); err != nil || r.Code != api.Success {
		t.Fatalf("Exit on the refused connection = %+v, %v", r, err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Exit did not end the refused connection")
	}

	if _, err := live.Malloc(64); err != nil {
		t.Errorf("session opened before the drain: %v", err)
	}
	if got := env.rt.Metrics().Sheds; got != 1 {
		t.Errorf("Sheds = %d, want 1", got)
	}
	if evs := rec.Filter(trace.KindShed); len(evs) != 1 {
		t.Errorf("shed trace events = %d, want 1", len(evs))
	}
	if got := env.rt.admitted.Load(); got != 0 {
		t.Errorf("admitted = %d after the refused connection, want 0", got)
	}
}
