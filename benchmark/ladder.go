package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/memmgr"
	"gvrt/internal/obs"
	"gvrt/internal/sched"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// The ladder times one layer per rung, from outside, through the
// layer's public functions. Every rung is a median over ladderRounds
// rounds of a fixed operation count; a few rungs are differences of two
// (client over an echo server minus the raw pipe, launch with minus
// without a tenant, ...).

const ladderRounds = 20

// opFunc performs n operations and returns the time to charge for
// them. Most rungs charge the whole loop (timeLoop); a rung that must
// interleave untimed housekeeping sums its own per-operation timings.
type opFunc func(n int) (time.Duration, error)

// each is the opFunc that runs f n times and charges the whole loop.
func each(f func(i int) error) opFunc {
	return func(n int) (time.Duration, error) { return timeLoop(n, f) }
}

func timeLoop(n int, f func(i int) error) (time.Duration, error) {
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

// rung is one step of the ladder.
type rung struct {
	name string
	unit string  // ns, us, ms or MB/s
	mb   float64 // MB moved per operation, for MB/s rungs
	// Names under which allocations, allocated bytes and process CPU
	// per operation are also reported ("" = not reported).
	allocs, bytes, cpu string
	build              func(dir string) (op opFunc, cleanup func(), err error)
	// base, when set, makes this a difference rung: base and build are
	// measured in alternation, round by round, and the rung reports the
	// median of the per-round differences (build − base) / div — drift
	// between two separately measured medians would swamp a difference
	// of a few hundred nanoseconds. base is reported as a rung of its
	// own.
	base *rung
	div  float64
}

// prepared is a built rung with its round size fixed.
type prepared struct {
	r       *rung
	op      opFunc
	cleanup func()
	n       int
	heavy   bool // a round outlasts its share: measure fewer rounds
	// per-operation samples, one per round
	ns, allocs, bytes, cpuNS []float64
}

// prepare builds r and sizes a round from a probe, which also warms
// lazy state.
func prepare(r *rung, dir string, perRound time.Duration) (*prepared, error) {
	op, cleanup, err := r.build(dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	const probeN = 4
	probe, err := op(probeN)
	if err != nil {
		cleanup()
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	perOp := float64(probe)/probeN + 1
	n := int(float64(perRound) / perOp)
	if n < 1 {
		n = 1
	}
	if n > 1<<22 {
		n = 1 << 22
	}
	return &prepared{r: r, op: op, cleanup: cleanup, n: n, heavy: perOp*float64(n) > 3*float64(perRound)}, nil
}

// round measures one round of p.n operations.
func (p *prepared) round() error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	d, err := p.op(p.n)
	if err != nil {
		return fmt.Errorf("%s: %w", p.r.name, err)
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	n := float64(p.n)
	p.ns = append(p.ns, float64(d)/n)
	p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	p.bytes = append(p.bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	p.cpuNS = append(p.cpuNS, float64(cpu)/n)
	return nil
}

// metrics renders what p measured in its rung's unit.
func (p *prepared) metrics() []metric {
	r := p.r
	vals := make([]float64, len(p.ns))
	for i, ns := range p.ns {
		vals[i] = inUnit(r, ns)
	}
	out := []metric{newMetric(r.name, r.unit, vals)}
	if r.allocs != "" {
		out = append(out, newMetric(r.allocs, "count", p.allocs))
	}
	if r.bytes != "" {
		out = append(out, newMetric(r.bytes, "B", p.bytes))
	}
	if r.cpu != "" {
		us := make([]float64, len(p.cpuNS))
		for i, v := range p.cpuNS {
			us[i] = v / 1e3
		}
		out = append(out, newMetric(r.cpu, "us", us))
	}
	return out
}

func inUnit(r *rung, nsPerOp float64) float64 {
	switch r.unit {
	case "us":
		return nsPerOp / 1e3
	case "ms":
		return nsPerOp / 1e6
	case "MB/s":
		return r.mb / (nsPerOp / 1e9)
	}
	return nsPerOp
}

// measureRung measures r (and its base, in alternation) for about
// budget and returns their metrics.
func measureRung(r *rung, dir string, budget time.Duration) ([]metric, error) {
	steps := []*rung{r}
	if r.base != nil {
		steps = []*rung{r.base, r}
	}
	perRound := budget / time.Duration(ladderRounds*len(steps))
	var ps []*prepared
	defer func() {
		for _, p := range ps {
			p.cleanup()
		}
	}()
	rounds := ladderRounds
	for _, st := range steps {
		p, err := prepare(st, dir, perRound)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		if p.heavy {
			rounds = 5
		}
	}
	for i := 0; i < rounds; i++ {
		for _, p := range ps {
			if err := p.round(); err != nil {
				return nil, err
			}
		}
	}
	if r.base == nil {
		return ps[0].metrics(), nil
	}
	base, main := ps[0], ps[1]
	diffs := make([]float64, rounds)
	for i := range diffs {
		diffs[i] = inUnit(r, (main.ns[i]-base.ns[i])/r.div)
	}
	return append(base.metrics(), newMetric(r.name, r.unit, diffs)), nil
}

// maxRungBudget keeps every node a rung builds well inside the ~9.2 s
// a clock at clockScale can run before its model time overflows.
const maxRungBudget = 2 * time.Second

// runLadder measures every rung and returns the per-layer metrics.
func runLadder(seconds float64, workdir string) ([]metric, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("ladder-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// One processor: a rung is one caller and at most one server
	// goroutine, and with two processors the Go scheduler places the
	// pair on one or on both from round to round, which changes a
	// channel hand-over from ~0.3 µs to ~1 µs. The ladder prices code
	// paths, not the scheduler's placement.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rungs := ladderRungs()
	budget := time.Duration(seconds * float64(time.Second) / float64(len(rungs)))
	if budget > maxRungBudget {
		budget = maxRungBudget
	}
	var out []metric
	for i := range rungs {
		runtime.GC()
		ms, err := measureRung(&rungs[i], dir, budget)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// echoServer answers every call with an empty reply until the
// connection closes.
func echoServer(sc transport.ServerConn) {
	for {
		if _, err := sc.Recv(); err != nil {
			return
		}
		if sc.Reply(api.Reply{}) != nil {
			return
		}
	}
}

// ladderSession opens a client on n, registers the binary and
// allocates two 256 KiB buffers, like the head of a benchmark session.
func ladderSession(n *node, tenant string) (*frontend.Client, api.LaunchCall, error) {
	conn, sc := transport.Pipe()
	go n.rt.HandleConn(sc)
	cl := frontend.Connect(conn)
	if err := cl.RegisterFatBinary(benchBinary); err != nil {
		return nil, api.LaunchCall{}, err
	}
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			return nil, api.LaunchCall{}, err
		}
	}
	a, err := cl.Malloc(256 << 10)
	if err != nil {
		return nil, api.LaunchCall{}, err
	}
	b, err := cl.Malloc(256 << 10)
	if err != nil {
		return nil, api.LaunchCall{}, err
	}
	return cl, api.LaunchCall{Kernel: "spin", Grid: api.Dim3{X: 32}, Block: api.Dim3{X: 128}, PtrArgs: []api.DevPtr{a, b}}, nil
}

// launchRung times launches on a session whose replay log never holds
// more than 20 entries (an untimed checkpoint empties it), so the cost
// does not depend on how many operations the round runs.
func launchRung(tenant string) func(string) (opFunc, func(), error) {
	return func(string) (opFunc, func(), error) {
		n, err := newNode(core.Config{}, gpu.TeslaC2050)
		if err != nil {
			return nil, nil, err
		}
		cl, launch, err := ladderSession(n, tenant)
		if err != nil {
			n.rt.Close()
			return nil, nil, err
		}
		op := func(k int) (time.Duration, error) {
			var total time.Duration
			for i := 0; i < k; i++ {
				if i%20 == 0 {
					if err := cl.Checkpoint(); err != nil {
						return 0, err
					}
				}
				t := time.Now()
				if err := cl.Launch(launch); err != nil {
					return 0, err
				}
				total += time.Since(t)
			}
			return total, nil
		}
		return op, func() { cl.Close(); n.rt.Close() }, nil
	}
}

func mallocFreeRung(armed bool) func(string) (opFunc, func(), error) {
	return func(string) (opFunc, func(), error) {
		mk := newNode
		if armed {
			mk = newArmedNode
		}
		n, err := mk(core.Config{}, gpu.TeslaC2050)
		if err != nil {
			return nil, nil, err
		}
		conn, sc := transport.Pipe()
		go n.rt.HandleConn(sc)
		cl := frontend.Connect(conn)
		op := each(func(int) error {
			p, err := cl.Malloc(4096)
			if err != nil {
				return err
			}
			return cl.Free(p)
		})
		return op, func() { cl.Close(); n.rt.Close() }, nil
	}
}

// memEnv is a memory manager driving one real simulated device through
// a CUDA context, as a bound vGPU does.
type memEnv struct {
	m   *memmgr.Manager
	ops *cudart.Context
	dev *gpu.Device
}

func newMemEnv() (*memEnv, error) {
	clock := sim.NewClock(clockScale)
	dev := gpu.NewDevice(0, gpu.TeslaC2050, clock)
	crt := cudart.New(clock, dev)
	ops, err := crt.CreateContext(0)
	if err != nil {
		return nil, err
	}
	return &memEnv{m: memmgr.New(true, 0), ops: ops, dev: dev}, nil
}

// entries allocates count entries of size bytes for context 1; with
// fill they carry real bytes.
func (e *memEnv) entries(count int, size uint64, fill bool) ([]*memmgr.PTE, error) {
	var data []byte
	if fill {
		data = make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
	}
	ptes := make([]*memmgr.PTE, 0, count)
	for i := 0; i < count; i++ {
		v, err := e.m.Malloc(1, size, memmgr.KindLinear)
		if err != nil {
			return nil, err
		}
		pte, _, err := e.m.Resolve(v)
		if err != nil {
			return nil, err
		}
		if fill {
			data[0] = byte(i) // distinct content per entry: no dedup sharing
			if err := e.m.CopyHD(pte, 0, data, 0, nil); err != nil {
				return nil, err
			}
		}
		ptes = append(ptes, pte)
	}
	return ptes, nil
}

func (e *memEnv) makeResident(ptes []*memmgr.PTE) error {
	for _, pte := range ptes {
		if err := e.m.EnsureAllocated(pte, e.ops); err != nil {
			return err
		}
	}
	return e.m.FlushDeferred(ptes, e.ops)
}

// journalEnv is an open journal in a fresh directory.
func openJournal(dir, name string) (*ckptlog.Journal, string, error) {
	d := filepath.Join(dir, name)
	if err := os.RemoveAll(d); err != nil {
		return nil, "", err
	}
	j, _, err := ckptlog.Open(d, ckptlog.Options{CompactBytes: -1})
	return j, d, err
}

func testImage(ctx int64, entries int, size int) *memmgr.ContextImage {
	img := &memmgr.ContextImage{CtxID: ctx, NextOff: uint64(entries * size)}
	for i := 0; i < entries; i++ {
		data := make([]byte, size)
		for k := range data {
			data[k] = byte(k*13 + i)
		}
		img.Entries = append(img.Entries, memmgr.EntryImage{
			Virtual: api.DevPtr(1<<63 | uint64(ctx)<<40 | uint64(i*size)), Size: uint64(size), HasData: true, Data: data,
		})
	}
	return img
}

var ladderLaunch = api.LaunchCall{Kernel: "spin", Grid: api.Dim3{X: 32}, Block: api.Dim3{X: 128},
	PtrArgs: []api.DevPtr{1<<63 | 1<<40, 1<<63 | 1<<40 | 1<<20}}

func ladderRungs() []rung {
	none := func() {}
	return []rung{
		// ---- transport, frontend ----
		{name: "frontend.call_overhead_ns", unit: "ns", div: 1, base: &rung{name: "transport.pipe_rtt_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			conn, sc := transport.Pipe()
			go echoServer(sc)
			return each(func(int) error { _, err := conn.Call(api.SetDeviceCall{}); return err }), func() { conn.Close() }, nil
		}}, build: func(string) (opFunc, func(), error) {
			conn, sc := transport.Pipe()
			go echoServer(sc)
			cl := frontend.Connect(conn)
			return each(func(int) error { return cl.SetDevice(0) }), func() { conn.Close() }, nil
		}},
		{name: "transport.gob_rtt_ns", unit: "ns", allocs: "transport.gob_rtt_allocs", build: func(string) (opFunc, func(), error) {
			a, b := net.Pipe()
			conn, sc := transport.NewClientConn(a), transport.NewServerConn(b)
			go echoServer(sc)
			return each(func(int) error { _, err := conn.Call(api.SetDeviceCall{}); return err }), func() { conn.Close(); sc.Close() }, nil
		}},
		{name: "transport.tcp_rtt_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			go func() {
				for {
					sc, err := l.Accept()
					if err != nil {
						return
					}
					go echoServer(sc)
				}
			}()
			conn, err := transport.Dial(l.Addr())
			if err != nil {
				l.Close()
				return nil, nil, err
			}
			return each(func(int) error { _, err := conn.Call(api.SetDeviceCall{}); return err }), func() { conn.Close(); l.Close() }, nil
		}},

		// ---- core dispatch ----
		{name: "core.noop_call_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			n, err := newNode(core.Config{}, gpu.TeslaC2050)
			if err != nil {
				return nil, nil, err
			}
			conn, sc := transport.Pipe()
			go n.rt.HandleConn(sc)
			cl := frontend.Connect(conn)
			return each(func(int) error { return cl.SetDevice(0) }), func() { cl.Close(); n.rt.Close() }, nil
		}},
		// Malloc and Free are both fenced, hence div 2: per fenced call.
		{name: "core.fence_ns", unit: "ns", div: 2, build: mallocFreeRung(true),
			base: &rung{name: "core.malloc_free_ns", unit: "ns", build: mallocFreeRung(false)}},
		{name: "core.tenant_ns", unit: "ns", div: 1, build: launchRung(tenantNames[0]),
			base: &rung{name: "core.launch_ns", unit: "ns", allocs: "core.launch_allocs", bytes: "core.launch_bytes", build: launchRung("")}},
		{name: "core.session_setup_us", unit: "us", build: func(string) (opFunc, func(), error) {
			n, err := newArmedNode(core.Config{}, gpu.TeslaC2050)
			if err != nil {
				return nil, nil, err
			}
			return each(func(int) error {
				cl, launch, err := ladderSession(n, tenantNames[0])
				if err != nil {
					return err
				}
				if err := cl.Launch(launch); err != nil {
					return err
				}
				return cl.Close()
			}), func() { n.rt.Close() }, nil
		}},
		{name: "core.proxy_hop_ns", unit: "ns", div: 1, base: &rung{name: "core.peer_call_us", unit: "us", build: func(string) (opFunc, func(), error) {
			peer, l, err := listenPeer()
			if err != nil {
				return nil, nil, err
			}
			conn, err := transport.Dial(l.Addr())
			if err != nil {
				l.Close()
				peer.rt.Close()
				return nil, nil, err
			}
			cl := frontend.Connect(conn)
			return each(func(int) error { return cl.SetDevice(0) }), func() { cl.Close(); l.Close(); peer.rt.Close() }, nil
		}}, build: func(string) (opFunc, func(), error) {
			peer, l, err := listenPeer()
			if err != nil {
				return nil, nil, err
			}
			addr := l.Addr()
			head, err := newNode(core.Config{
				VGPUsPerDevice: 1, OffloadThreshold: 1,
				PeerDial: func() (transport.Conn, error) { return transport.Dial(addr) },
			}, gpu.TeslaC2050)
			if err != nil {
				l.Close()
				peer.rt.Close()
				return nil, nil, err
			}
			bconn, bsc := transport.Pipe()
			go head.rt.HandleConn(bsc)
			ballast := frontend.Connect(bconn)
			if err := holdVGPU(ballast); err != nil {
				return nil, nil, err
			}
			conn, sc := transport.Pipe()
			go head.rt.HandleConn(sc)
			cl := frontend.Connect(conn)
			cleanup := func() { cl.Close(); ballast.Close(); l.Close(); head.rt.Close(); peer.rt.Close() }
			return func(k int) (time.Duration, error) {
				d, err := timeLoop(k, func(int) error { return cl.SetDevice(0) })
				if err == nil && head.rt.Metrics().Offloaded != 1 {
					err = fmt.Errorf("ladder session was not offloaded")
				}
				return d, err
			}, cleanup, nil
		}},

		// ---- memmgr ----
		{name: "memmgr.resolve_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			m := memmgr.New(true, 0)
			var ptrs []api.DevPtr
			for i := 0; i < 64; i++ {
				v, err := m.Malloc(1, 4096, memmgr.KindLinear)
				if err != nil {
					return nil, nil, err
				}
				ptrs = append(ptrs, v)
			}
			return each(func(i int) error { _, _, err := m.Resolve(ptrs[i%len(ptrs)] + 17); return err }), none, nil
		}},
		{name: "memmgr.malloc_free_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			m := memmgr.New(true, 0)
			return each(func(int) error {
				v, err := m.Malloc(1, 4096, memmgr.KindLinear)
				if err != nil {
					return err
				}
				pte, _, err := m.Resolve(v)
				if err != nil {
					return err
				}
				return m.Free(pte, nil)
			}), none, nil
		}},
		{name: "memmgr.copyhd_deferred_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			m := memmgr.New(true, 0)
			v, err := m.Malloc(1, 1<<16, memmgr.KindLinear)
			if err != nil {
				return nil, nil, err
			}
			pte, _, _ := m.Resolve(v)
			data := make([]byte, 4096)
			return each(func(i int) error { return m.CopyHD(pte, uint64(i%16)*4096, data, 0, nil) }), none, nil
		}},
		{name: "memmgr.flush_deferred_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			e, err := newMemEnv()
			if err != nil {
				return nil, nil, err
			}
			ptes, err := e.entries(2, 256<<10, false)
			if err != nil {
				return nil, nil, err
			}
			if err := e.makeResident(ptes); err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				var total time.Duration
				for i := 0; i < n; i++ {
					// An untimed deferred host write gives the flush one
					// transfer to land, as in a benchmark iteration.
					if err := e.m.CopyHD(ptes[0], 0, nil, 256<<10, e.ops); err != nil {
						return 0, err
					}
					t := time.Now()
					if err := e.m.FlushDeferred(ptes, e.ops); err != nil {
						return 0, err
					}
					total += time.Since(t)
				}
				return total, nil
			}, func() { e.ops.Destroy() }, nil
		}},
		{name: "memmgr.swap_roundtrip_us", unit: "us", allocs: "memmgr.swap_roundtrip_allocs", build: func(string) (opFunc, func(), error) {
			e, err := newMemEnv()
			if err != nil {
				return nil, nil, err
			}
			ptes, err := e.entries(swapSetBufs, swapBufBytes, false)
			if err != nil {
				return nil, nil, err
			}
			return each(func(int) error {
				for _, pte := range ptes {
					if err := e.m.MakeResident(pte, e.ops); err != nil {
						return err
					}
				}
				e.m.MarkKernelEffects(ptes, nil)
				_, err := e.m.SwapOutEntries(ptes, e.ops)
				return err
			}), func() { e.ops.Destroy() }, nil
		}},
		{name: "memmgr.swapout_real_mb_per_s", unit: "MB/s", mb: 16, build: func(string) (opFunc, func(), error) {
			e, err := newMemEnv()
			if err != nil {
				return nil, nil, err
			}
			ptes, err := e.entries(16, 1<<20, true)
			if err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				var total time.Duration
				for i := 0; i < n; i++ {
					if err := e.makeResident(ptes); err != nil {
						return 0, err
					}
					e.m.MarkKernelEffects(ptes, nil)
					t := time.Now()
					if _, err := e.m.SwapOutEntries(ptes, e.ops); err != nil {
						return 0, err
					}
					total += time.Since(t)
				}
				return total, nil
			}, func() { e.ops.Destroy() }, nil
		}},
		{name: "memmgr.checkpoint_mb_per_s", unit: "MB/s", mb: 16, build: func(string) (opFunc, func(), error) {
			e, err := newMemEnv()
			if err != nil {
				return nil, nil, err
			}
			ptes, err := e.entries(16, 1<<20, true)
			if err != nil {
				return nil, nil, err
			}
			if err := e.makeResident(ptes); err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				var total time.Duration
				for i := 0; i < n; i++ {
					e.m.MarkKernelEffects(ptes, nil)
					t := time.Now()
					if _, err := e.m.Checkpoint(1, e.ops); err != nil {
						return 0, err
					}
					total += time.Since(t)
				}
				return total, nil
			}, func() { e.ops.Destroy() }, nil
		}},

		// ---- gpu, cudart, sim, sched ----
		{name: "gpu.exec_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			dev := gpu.NewDevice(0, gpu.TeslaC2050, sim.NewClock(clockScale))
			return each(func(int) error { return dev.Exec(time.Microsecond, 1, nil) }), none, nil
		}},
		{name: "gpu.malloc_free_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			dev := gpu.NewDevice(0, gpu.TeslaC2050, sim.NewClock(clockScale))
			return each(func(int) error {
				p, err := dev.Malloc(1 << 20)
				if err != nil {
					return err
				}
				return dev.Free(p)
			}), none, nil
		}},
		{name: "gpu.malloc_fragmented_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			dev := gpu.NewDevice(0, gpu.TeslaC2050, sim.NewClock(clockScale))
			var live []api.DevPtr
			for i := 0; i < 256; i++ {
				p, err := dev.Malloc(1 << 20)
				if err != nil {
					return nil, nil, err
				}
				live = append(live, p)
			}
			for i := 0; i < len(live); i += 2 {
				if err := dev.Free(live[i]); err != nil {
					return nil, nil, err
				}
			}
			return each(func(int) error {
				p, err := dev.Malloc(512 << 10)
				if err != nil {
					return err
				}
				return dev.Free(p)
			}), none, nil
		}},
		{name: "gpu.copyin_batch_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			dev, items, _, err := batchItems()
			if err != nil {
				return nil, nil, err
			}
			return each(func(int) error { return dev.CopyInBatch(items) }), none, nil
		}},
		{name: "gpu.copyout_batch_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			dev, _, items, err := batchItems()
			if err != nil {
				return nil, nil, err
			}
			return each(func(int) error { _, err := dev.CopyOutBatch(items); return err }), none, nil
		}},
		{name: "gpu.copyout_mb_per_s", unit: "MB/s", mb: 1, build: func(string) (opFunc, func(), error) {
			dev := gpu.NewDevice(0, gpu.TeslaC2050, sim.NewClock(clockScale))
			p, err := dev.Malloc(1 << 20)
			if err != nil {
				return nil, nil, err
			}
			if err := dev.CopyIn(p, make([]byte, 1<<20), 1<<20); err != nil {
				return nil, nil, err
			}
			return each(func(int) error { _, err := dev.CopyOut(p, 1<<20); return err }), none, nil
		}},
		{name: "cudart.create_context_us", unit: "us", build: func(string) (opFunc, func(), error) {
			clock := sim.NewClock(clockScale)
			crt := cudart.New(clock, gpu.NewDevice(0, gpu.TeslaC2050, clock))
			return each(func(int) error {
				c, err := crt.CreateContext(0)
				if err != nil {
					return err
				}
				c.Destroy()
				return nil
			}), none, nil
		}},
		{name: "sim.sleep_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			clock := sim.NewClock(clockScale)
			return each(func(int) error { clock.Sleep(core.DefaultCallOverhead); return nil }), none, nil
		}},
		{name: "sched.pick_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			waiters := make([]sched.Waiter, 64)
			for i := range waiters {
				waiters[i] = sched.Waiter{CtxID: int64(i + 1), Arrived: time.Duration(64-i) * time.Millisecond, MemDemand: 1 << 20}
			}
			devs := []sched.DeviceLoad{
				{Index: 0, Speed: 1, FreeVGPUs: 2, ActiveVGPUs: 2, MemAvailable: 1 << 30},
				{Index: 1, Speed: 1, FreeVGPUs: 1, ActiveVGPUs: 3, MemAvailable: 2 << 30},
				{Index: 2, Speed: 0.6, FreeVGPUs: 4, ActiveVGPUs: 0, MemAvailable: 3 << 30},
			}
			var policy sched.Policy = sched.FCFS{}
			return each(func(i int) error {
				if policy.PickWaiter(waiters) < 0 || policy.PickDevice(waiters[i%64], devs) < 0 {
					return fmt.Errorf("policy declined")
				}
				return nil
			}), none, nil
		}},

		// ---- failover, trace, obs ----
		{name: "failover.lease_check_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			clock := sim.NewClock(clockScale)
			t := failover.NewTable(0, clock.Now)
			l, err := t.Acquire(1, "local")
			if err != nil {
				return nil, nil, err
			}
			return each(func(int) error { _, err := t.Check(1, "local", l.Epoch); return err }), none, nil
		}},
		{name: "trace.hist_observe_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			var h trace.Histogram
			return each(func(i int) error { h.Observe(int64(i)*977 + 1); return nil }), none, nil
		}},
		{name: "obs.tenant_addcall_ns", unit: "ns", build: func(string) (opFunc, func(), error) {
			tm := obs.NewRegistry().Tenant(tenantNames[0])
			return each(func(int) error { tm.AddCall(false); return nil }), none, nil
		}},

		// ---- ckptlog ----
		{name: "ckptlog.kernel_commit_us", unit: "us", cpu: "ckptlog.kernel_commit_cpu_us", build: func(dir string) (opFunc, func(), error) {
			j, _, err := openJournal(dir, "commit")
			if err != nil {
				return nil, nil, err
			}
			return each(func(int) error { return j.KernelCommitted(1, ladderLaunch) }), func() { j.Close() }, nil
		}},
		{name: "ckptlog.fsync_floor_us", unit: "us", build: func(dir string) (opFunc, func(), error) {
			// The hardware share of a commit: a bare fsync after a
			// record-sized write in the same directory.
			f, err := os.Create(filepath.Join(dir, "fsync-floor"))
			if err != nil {
				return nil, nil, err
			}
			buf := make([]byte, 128)
			return each(func(int) error {
				if _, err := f.Write(buf); err != nil {
					return err
				}
				return f.Sync()
			}), func() { f.Close() }, nil
		}},
		{name: "ckptlog.entry_written_mb_per_s", unit: "MB/s", mb: 0.25, build: func(dir string) (opFunc, func(), error) {
			j, _, err := openJournal(dir, "entries")
			if err != nil {
				return nil, nil, err
			}
			e := testImage(1, 1, 256<<10).Entries[0]
			return func(n int) (time.Duration, error) {
				d, err := timeLoop(n, func(int) error { j.EntryWritten(1, e, 0); return nil })
				if err == nil {
					err = j.Sync() // untimed: keeps dirty pages from piling up
				}
				return d, err
			}, func() { j.Close() }, nil
		}},
		{name: "ckptlog.snapshot_us", unit: "us", build: func(dir string) (opFunc, func(), error) {
			j, _, err := openJournal(dir, "snapshot")
			if err != nil {
				return nil, nil, err
			}
			img := testImage(1, 2, 256<<10)
			return each(func(int) error { return j.SnapshotContext(img, nil) }), func() { j.Close() }, nil
		}},
		{name: "ckptlog.compact_ms", unit: "ms", build: func(dir string) (opFunc, func(), error) {
			j, _, err := openJournal(dir, "compact")
			if err != nil {
				return nil, nil, err
			}
			for ctx := int64(1); ctx <= 8; ctx++ {
				if err := j.SnapshotContext(testImage(ctx, 2, 64<<10), nil); err != nil {
					return nil, nil, err
				}
			}
			return each(func(int) error { return j.Compact() }), func() { j.Close() }, nil
		}},
		{name: "ckptlog.open_recover_ms", unit: "ms", build: func(dir string) (opFunc, func(), error) {
			j, d, err := openJournal(dir, "recover")
			if err != nil {
				return nil, nil, err
			}
			for ctx := int64(1); ctx <= 8; ctx++ {
				if err := j.SnapshotContext(testImage(ctx, 2, 64<<10), nil); err != nil {
					return nil, nil, err
				}
				for k := 0; k < 8; k++ {
					if err := j.KernelCommitted(ctx, ladderLaunch); err != nil {
						return nil, nil, err
					}
				}
			}
			if err := j.Close(); err != nil {
				return nil, nil, err
			}
			return each(func(int) error {
				j, rec, err := ckptlog.Open(d, ckptlog.Options{CompactBytes: -1})
				if err != nil {
					return err
				}
				if len(rec.Images) != 8 || len(rec.Quarantined) != 0 {
					return fmt.Errorf("recovered %d images, %d quarantined", len(rec.Images), len(rec.Quarantined))
				}
				return j.Close()
			}), none, nil
		}},
	}
}

// listenPeer starts a plain node serving a loopback listener.
func listenPeer() (*node, *transport.Listener, error) {
	peer, err := newNode(core.Config{}, gpu.TeslaC2050)
	if err != nil {
		return nil, nil, err
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		peer.rt.Close()
		return nil, nil, err
	}
	go peer.rt.ServeListener(l)
	return peer, l, nil
}

// batchItems allocates one swap set's worth of synthetic buffers on a
// device and returns the matching host→device and device→host batches.
func batchItems() (*gpu.Device, []api.HDCopy, []api.DHCopy, error) {
	dev := gpu.NewDevice(0, gpu.TeslaC2050, sim.NewClock(clockScale))
	in := make([]api.HDCopy, 0, swapSetBufs)
	out := make([]api.DHCopy, 0, swapSetBufs)
	for i := 0; i < swapSetBufs; i++ {
		p, err := dev.Malloc(swapBufBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		in = append(in, api.HDCopy{Dst: p, Size: swapBufBytes})
		out = append(out, api.DHCopy{Src: p, Size: swapBufBytes})
	}
	return dev, in, out, nil
}
