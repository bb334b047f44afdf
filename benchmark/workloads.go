package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/failover"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// sizes fixes how much work one round of each workload does. The full
// sizes are constants chosen so a round takes 0.5–1.0 s on the 2-core
// reference box; tiny sizes exist for the smoke tests. They are not
// flags: a number measured at another size is another benchmark.
type sizes struct {
	pipeSessions      int // pipe-dispatch sessions per round, over all clients
	tcpSessions       int // tcp-offload sessions per round
	durableSessions   int // durable-commit sessions per round
	swapIntraSessions int // swap-pressure: intra-phase sessions per round, over all clients
	swapInterPairs    int // swap-pressure: inter-phase session pairs per round
}

var (
	fullSizes = sizes{pipeSessions: 4000, tcpSessions: 640, durableSessions: 8, swapIntraSessions: 100, swapInterPairs: 1000}
	tinySizes = sizes{pipeSessions: 40, tcpSessions: 20, durableSessions: 2, swapIntraSessions: 4, swapInterPairs: 10}
)

// script is the one session body pipe-dispatch, tcp-offload and
// durable-commit share, so that what differs between them is the path a
// call takes, not what the application does.
type script struct {
	bufBytes      uint64
	iters         int
	realBytes     bool // MemcpyHD carries seeded bytes instead of a synthetic size
	readbackEvery int  // MemcpyDH + byte compare after every n-th iteration; 0 = never
	checkpoint    bool // explicit Checkpoint before the frees
}

var (
	dispatchScript = script{bufBytes: 256 << 10, iters: 20}
	durableScript  = script{bufBytes: 256 << 10, iters: 8, realBytes: true, readbackEvery: 4, checkpoint: true}
)

// callsPerSession is the closed form of how many calls a runtime serves
// for one session of s: register, set-tenant, two mallocs, the
// iteration loop, the optional checkpoint, two frees and the exit.
func (s script) callsPerSession() int64 {
	n := 1 + 1 + 2 + s.timedCallsPerSession() + 2 + 1
	if s.checkpoint {
		n++
	}
	return int64(n)
}

// timedCallsPerSession is the number of calls in the iteration loop:
// a copy and a launch per iteration, plus the read-backs.
func (s script) timedCallsPerSession() int {
	n := 2 * s.iters
	if s.readbackEvery > 0 {
		n += s.iters / s.readbackEvery
	}
	return n
}

// launchesPerSession is the number of kernel launches in one session.
func (s script) launchesPerSession() int64 { return int64(s.iters) }

// sessionPlan is what the seed decides about one session; the runtime
// only ever sees the calls generated from it.
type sessionPlan struct {
	tenant  int // index into tenantNames
	payload int // offset into the workload's payload pool (real-byte scripts)
}

// planSessions draws a per-client session list from the seed: which
// tenant each session joins and which slice of the payload pool it
// writes. The draw order is the order the sessions run in.
func planSessions(rng *sim.RNG, clients, total, payloadSlots int) [][]sessionPlan {
	out := make([][]sessionPlan, clients)
	for i, n := range splitEven(total, clients) {
		out[i] = make([]sessionPlan, n)
		for k := range out[i] {
			p := sessionPlan{tenant: rng.Intn(len(tenantNames))}
			if payloadSlots > 0 {
				p.payload = rng.Intn(payloadSlots)
			}
			out[i][k] = p
		}
	}
	return out
}

var errReadback = errors.New("benchmark: read-back differs from the bytes written")

// runSession drives one application thread's whole life over conn.
// Every call is counted; the calls of the iteration loop are also
// timed. A failing call ends the session early (the close still runs).
func runSession(s *session, conn transport.Conn, sc *script, tenant string, payload []byte) {
	cl := frontend.Connect(conn)
	defer func() {
		s.op(cl.Close())
		s.end()
	}()
	if s.op(cl.RegisterFatBinary(benchBinary)) != nil {
		return
	}
	if s.op(cl.SetTenant(tenant)) != nil {
		return
	}
	a, err := cl.Malloc(sc.bufBytes)
	if s.op(err) != nil {
		return
	}
	b, err := cl.Malloc(sc.bufBytes)
	if s.op(err) != nil {
		return
	}
	launch := api.LaunchCall{
		Kernel:  "spin",
		Grid:    api.Dim3{X: 32},
		Block:   api.Dim3{X: 128},
		PtrArgs: []api.DevPtr{a, b},
	}
	for i := 0; i < sc.iters; i++ {
		t := time.Now()
		if sc.realBytes {
			err = cl.MemcpyHD(a, payload)
		} else {
			err = cl.MemcpyHDSynthetic(a, sc.bufBytes)
		}
		if s.timedOp(t, err) != nil {
			return
		}
		t = time.Now()
		if s.timedOp(t, cl.Launch(launch)) != nil {
			return
		}
		if sc.readbackEvery > 0 && (i+1)%sc.readbackEvery == 0 {
			t = time.Now()
			got, err := cl.MemcpyDH(a, sc.bufBytes)
			if err == nil && !bytes.Equal(got, payload) {
				err = errReadback
			}
			if s.timedOp(t, err) != nil {
				return
			}
		}
	}
	if sc.checkpoint && s.op(cl.Checkpoint()) != nil {
		return
	}
	if s.op(cl.Free(a)) != nil {
		return
	}
	s.op(cl.Free(b))
}

// serverGroup runs one HandleConn goroutine per connection and lets a
// round wait until every one of them has torn its context down, so the
// counters it then reads are final.
type serverGroup struct {
	rt *core.Runtime
	wg sync.WaitGroup
}

func (g *serverGroup) serve(sc transport.ServerConn) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.rt.HandleConn(sc)
	}()
}

// runPlan is the timed region of a scripted workload: client i runs its
// planned sessions one after another, each over a fresh pipe served by
// srv. payloads is the pool a real-byte script draws from.
func runPlan(r *roundRec, tr *tracer, srv *serverGroup, recs []*clientRec, plan [][]sessionPlan, sc *script, payloads [][]byte) {
	r.timed(recs, func(i int, c *clientRec) {
		for _, p := range plan[i] {
			var payload []byte
			if payloads != nil {
				payload = payloads[p.payload]
			}
			s, conn, ssc := tr.open(c)
			srv.serve(ssc)
			runSession(&s, conn, sc, tenantNames[p.tenant], payload)
		}
	})
}

// workload is one benchmark workload: a round builds its nodes, runs
// the timed region(s), checks the validity invariants, measures the
// retained heap and tears everything down.
type workload interface {
	name() string
	round(r *roundRec, tr *tracer) error
}

// invariant reports a validity failure: the round did not exercise the
// path the workload claims to measure, so its numbers must not be used.
func invariant(workload, format string, args ...any) error {
	return fmt.Errorf("%s: validity invariant violated: %s", workload, fmt.Sprintf(format, args...))
}

// ---- pipe-dispatch ----

// pipeDispatch is §5's pure framework overhead: everything fits, so
// frontend + pipe + core dispatch/fence/tenant + memmgr deferral do all
// the work and swap, journal and TCP do none.
type pipeDispatch struct {
	plan     [][]sessionPlan
	recs     []*clientRec
	sessions int64
}

func newPipeDispatch(sz sizes, clients int, rng *sim.RNG) *pipeDispatch {
	w := &pipeDispatch{plan: planSessions(rng, clients, sz.pipeSessions, 0)}
	w.recs, w.sessions = planRecs(w.plan, &dispatchScript)
	return w
}

func (w *pipeDispatch) name() string { return "pipe-dispatch" }

func (w *pipeDispatch) round(r *roundRec, tr *tracer) error {
	recs, sessions := resetRecs(w.recs), w.sessions
	n, err := newArmedNode(core.Config{}, gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060)
	if err != nil {
		return err
	}
	defer n.rt.Close()
	srv := &serverGroup{rt: n.rt}
	runPlan(r, tr, srv, recs, w.plan, &dispatchScript, nil)
	srv.wg.Wait()
	if err := r.callFailures(w.name()); err != nil {
		return err
	}

	m := n.rt.Metrics()
	r.served += m.CallsServed
	r.noteRuntime(n.rt)
	if err := checkPipeDispatch(m, sessions); err != nil {
		return err
	}
	r.measureHeap(recs)
	return nil
}

// checkPipeDispatch holds a round to the path it claims: nothing
// swapped, nothing offloaded, one bind per session and exactly the
// scripted calls served.
func checkPipeDispatch(m core.Metrics, sessions int64) error {
	const w = "pipe-dispatch"
	switch want := sessions * dispatchScript.callsPerSession(); {
	case m.Memory.SwapOps != 0:
		return invariant(w, "swap_ops = %d, want 0", m.Memory.SwapOps)
	case m.Offloaded != 0:
		return invariant(w, "offloaded = %d, want 0", m.Offloaded)
	case m.Binds != sessions:
		return invariant(w, "binds = %d, want sessions = %d", m.Binds, sessions)
	case m.CallsServed != want:
		return invariant(w, "calls served = %d, want %d", m.CallsServed, want)
	}
	return nil
}

// planRecs allocates the client records for a plan, with latency
// buffers large enough that recording never grows them, and returns the
// total session count.
func planRecs(plan [][]sessionPlan, s *script) ([]*clientRec, int64) {
	perSession := s.timedCallsPerSession()
	most, total := 0, 0
	for _, p := range plan {
		total += len(p)
		if len(p) > most {
			most = len(p)
		}
	}
	return newClientRecs(len(plan), most*perSession, most), int64(total)
}

// ---- tcp-offload ----

// tcpOffload is §4.7: every measured session arrives at a head node
// whose only vGPU is held by an idle ballast session, so the head
// offloads it to a peer over loopback TCP. Gob codec + TCP + proxy
// dominate a call; the session body is pipe-dispatch's.
type tcpOffload struct {
	plan      [][]sessionPlan
	recs      []*clientRec
	sessions  int64
	noBallast bool // test hook: omit the ballast so the invariant must fire
}

func newTCPOffload(sz sizes, clients int, rng *sim.RNG) *tcpOffload {
	w := &tcpOffload{plan: planSessions(rng, clients, sz.tcpSessions, 0)}
	w.recs, w.sessions = planRecs(w.plan, &dispatchScript)
	return w
}

func (w *tcpOffload) name() string { return "tcp-offload" }

func (w *tcpOffload) round(r *roundRec, tr *tracer) error {
	recs, sessions := resetRecs(w.recs), w.sessions
	// One lease table for the two nodes, as in a cluster; the peer
	// issues session IDs above the head's so they never collide in it
	// (a context ID has 23 bits inside a virtual address).
	leaseClock := sim.NewClock(clockScale)
	leases := failover.NewTable(0, leaseClock.Now)

	peer, err := newArmedNode(core.Config{Leases: leases, NodeName: "peer", SessionBase: 1 << 20}, gpu.TeslaC2050)
	if err != nil {
		return err
	}
	defer peer.rt.Close()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	peerSrv := &serverGroup{rt: peer.rt}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			peerSrv.serve(tr.accepted(sc))
		}
	}()
	stopPeer := func() {
		l.Close()
		<-accepted
		peerSrv.wg.Wait()
	}

	addr := l.Addr()
	head, err := newArmedNode(core.Config{
		Leases:           leases,
		NodeName:         "head",
		VGPUsPerDevice:   1,
		OffloadThreshold: 1,
		PeerDial:         tr.peerDial(func() (transport.Conn, error) { return transport.Dial(addr) }),
	}, gpu.TeslaC2050)
	if err != nil {
		stopPeer()
		return err
	}
	defer head.rt.Close()
	headSrv := &serverGroup{rt: head.rt}

	// The ballast session binds the head's only vGPU and then sits
	// idle: with it admitted, every later arrival projects a queue of
	// one and is offloaded — deterministically, not by racing
	// admission against teardown.
	var ballast *frontend.Client
	if !w.noBallast {
		conn, sc := transport.Pipe()
		headSrv.serve(sc)
		ballast = frontend.Connect(conn)
		if err := holdVGPU(ballast); err != nil {
			stopPeer()
			return fmt.Errorf("%s: ballast session: %w", w.name(), err)
		}
	}

	runPlan(r, tr, headSrv, recs, w.plan, &dispatchScript, nil)
	if ballast != nil {
		ballast.Close()
	}
	headSrv.wg.Wait()
	stopPeer()
	if err := r.callFailures(w.name()); err != nil {
		return err
	}

	hm, pm := head.rt.Metrics(), peer.rt.Metrics()
	r.served += pm.CallsServed
	r.noteRuntime(peer.rt)
	if err := checkTCPOffload(hm, pm, head.h2dOps(), sessions); err != nil {
		return err
	}
	r.measureHeap(recs)
	return nil
}

// checkTCPOffload holds a round to the offload path: every measured
// session proxied, the peer served exactly the scripted calls, and the
// head's device moved no data.
func checkTCPOffload(head, peer core.Metrics, headH2DOps, sessions int64) error {
	const w = "tcp-offload"
	switch want := sessions * dispatchScript.callsPerSession(); {
	case head.Offloaded != sessions:
		return invariant(w, "offloaded = %d, want sessions = %d", head.Offloaded, sessions)
	case peer.CallsServed != want:
		return invariant(w, "peer calls served = %d, want %d", peer.CallsServed, want)
	case headH2DOps != 0:
		return invariant(w, "head h2d_ops = %d, want 0", headH2DOps)
	}
	return nil
}

// holdVGPU makes cl bind a vGPU (first launch) and keep it.
func holdVGPU(cl *frontend.Client) error {
	if err := cl.RegisterFatBinary(benchBinary); err != nil {
		return err
	}
	p, err := cl.Malloc(4096)
	if err != nil {
		return err
	}
	return cl.Launch(api.LaunchCall{Kernel: "spin", PtrArgs: []api.DevPtr{p}})
}

// ---- durable-commit ----

// durableCommit is the acked⇒durable path: a ckptlog journal in a
// fresh directory per round, real bytes through memmgr and gpu, an
// fsync per acknowledged launch and a checkpoint image per read-back.
type durableCommit struct {
	plan     [][]sessionPlan
	recs     []*clientRec
	sessions int64
	payloads [][]byte
	workdir  string
	rounds   int
}

func newDurableCommit(sz sizes, clients int, rng *sim.RNG, workdir string) *durableCommit {
	const slots = 4
	w := &durableCommit{workdir: workdir, plan: planSessions(rng, clients, sz.durableSessions, slots)}
	for i := 0; i < slots; i++ {
		buf := make([]byte, durableScript.bufBytes)
		for k := range buf {
			buf[k] = byte(rng.Intn(256))
		}
		w.payloads = append(w.payloads, buf)
	}
	w.recs, w.sessions = planRecs(w.plan, &durableScript)
	return w
}

func (w *durableCommit) name() string { return "durable-commit" }

func (w *durableCommit) round(r *roundRec, tr *tracer) error {
	w.rounds++
	dir := filepath.Join(w.workdir, fmt.Sprintf("journal-%d-%d", os.Getpid(), w.rounds))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	recs, sessions := resetRecs(w.recs), w.sessions
	j, _, err := ckptlog.Open(dir, ckptlog.Options{})
	if err != nil {
		return err
	}
	defer j.Close() // error paths; the success path checks Close below
	n, err := newArmedNode(core.Config{}, gpu.TeslaC2050)
	if err != nil {
		return err
	}
	defer n.rt.Close()
	if err := n.rt.AttachJournal(j); err != nil {
		return err
	}
	srv := &serverGroup{rt: n.rt}
	runPlan(r, tr, srv, recs, w.plan, &durableScript, w.payloads)
	srv.wg.Wait()
	if err := r.callFailures(w.name()); err != nil {
		return err
	}

	m, js := n.rt.Metrics(), j.Stats()
	r.served += m.CallsServed
	r.noteRuntime(n.rt)
	launches := sessions * durableScript.launchesPerSession()
	r.noteJournal(js, n.rt, launches)
	if err := j.Close(); err != nil {
		return fmt.Errorf("%s: closing journal: %w", w.name(), err)
	}
	if err := checkDurableCommit(js, m, sessions); err != nil {
		return err
	}
	// The directory must recover cleanly: an acked commit that cannot
	// be read back is not durable.
	j2, rec, err := ckptlog.Open(dir, ckptlog.Options{})
	if err == nil {
		j2.Close()
	}
	if err := checkRecovered(rec, err); err != nil {
		return err
	}
	r.measureHeap(recs)
	return nil
}

// checkDurableCommit holds a round to the durable path: at least one
// fsync per acknowledged launch and exactly the scripted calls served.
func checkDurableCommit(js ckptlog.Stats, m core.Metrics, sessions int64) error {
	const w = "durable-commit"
	launches := sessions * durableScript.launchesPerSession()
	switch want := sessions * durableScript.callsPerSession(); {
	case js.Syncs < launches:
		return invariant(w, "journal syncs = %d, want >= launches = %d", js.Syncs, launches)
	case m.CallsServed != want:
		return invariant(w, "calls served = %d, want %d", m.CallsServed, want)
	}
	return nil
}

// checkRecovered judges the result of reopening a round's journal.
func checkRecovered(rec *ckptlog.Recovered, err error) error {
	const w = "durable-commit"
	switch {
	case err != nil:
		return invariant(w, "journal does not reopen: %v", err)
	case len(rec.Quarantined) != 0 || rec.TornBytes != 0:
		return invariant(w, "journal recovery quarantined %d images, truncated %d torn bytes",
			len(rec.Quarantined), rec.TornBytes)
	}
	return nil
}

// ---- swap-pressure ----

// Swap-pressure geometry. One set (23 × 128 MiB = 2944 MiB) fits a
// C2050's 3 GiB beside one context reservation; two sets do not, so
// every launch of one set evicts the other. In the inter phase two
// sessions own 1600 MiB each and the device holds only one of them.
// Sessions have a fixed, short length: a session that never
// checkpoints grows its replay log by one entry per launch, so launch
// cost would otherwise depend on how long the round is.
const (
	swapSetBufs  = 23
	swapBufBytes = 128 << 20
	swapInterBuf = 1600 << 20
	swapIters    = 20 // alternations per session (intra) or per pair of sessions (inter)
)

// swapPressure is §4.5's two swap modes. The intra phase alternates two
// working sets inside each session (clients serialised on the single
// vGPU's bind queue); the inter phase alternates two sessions that
// displace each other. memmgr evict/restore bookkeeping, gpu batch
// copies and core.intraSwap/interSwap are nearly all of a call.
//
// The phases are sized so that inter launches are ~90% of the timed
// calls and intra launches ~10%: call_p50_us is the cost of an
// inter-application swap, call_p99_us sits inside the intra mode, and
// neither percentile falls on the boundary between the two.
type swapPressure struct {
	intraPlan  [][]sessionPlan // per client
	interPairs []sessionPlan   // one driver
	intraRecs  []*clientRec
	interRecs  []*clientRec
}

func newSwapPressure(sz sizes, clients int, rng *sim.RNG) *swapPressure {
	w := &swapPressure{
		intraPlan:  planSessions(rng, clients, sz.swapIntraSessions, 0),
		interPairs: planSessions(rng, 1, sz.swapInterPairs, 0)[0],
	}
	most := 0
	for _, p := range w.intraPlan {
		if len(p) > most {
			most = len(p)
		}
	}
	pairs := len(w.interPairs)
	w.intraRecs = newClientRecs(clients, most*2*swapIters, most)
	w.interRecs = newClientRecs(1, pairs*2*swapIters, pairs*2)
	return w
}

func (w *swapPressure) name() string { return "swap-pressure" }

// Closed forms of the swap operations one session (intra) or one pair
// of sessions (inter) must cause. Intra: the first launch of set 0
// evicts nothing, each of the other 2*iters-1 launches evicts the other
// set's 23 entries, and the frees swap nothing. Inter: after the first
// session's first launch, each of the other 2*iters-1 launches evicts
// the other session's single buffer.
const (
	intraSwapOpsPerSession = (2*swapIters - 1) * swapSetBufs
	interSwapOpsPerPair    = 2*swapIters - 1
)

// checkSwapIntra and checkSwapInter hold each phase of a round to its
// closed form — in every round, not on average.
func checkSwapIntra(m core.Metrics, sessions int64) error {
	const w = "swap-pressure"
	switch want := sessions * intraSwapOpsPerSession; {
	case m.Memory.SwapOps != want:
		return invariant(w, "intra phase swap_ops = %d, want %d", m.Memory.SwapOps, want)
	case m.Binds != sessions:
		return invariant(w, "intra phase binds = %d, want sessions = %d", m.Binds, sessions)
	}
	return nil
}

func checkSwapInter(m core.Metrics, pairs int64) error {
	const w = "swap-pressure"
	switch want := pairs * interSwapOpsPerPair; {
	case m.Memory.SwapOps != want:
		return invariant(w, "inter phase swap_ops = %d, want %d", m.Memory.SwapOps, want)
	case m.InterAppSwaps != want:
		return invariant(w, "inter phase inter-app swaps = %d, want %d", m.InterAppSwaps, want)
	}
	return nil
}

func (w *swapPressure) round(r *roundRec, tr *tracer) error {
	if err := w.intra(r, tr); err != nil {
		return err
	}
	return w.inter(r, tr)
}

func (w *swapPressure) intra(r *roundRec, tr *tracer) error {
	sessions := 0
	for _, p := range w.intraPlan {
		sessions += len(p)
	}
	recs := resetRecs(w.intraRecs)
	n, err := newArmedNode(core.Config{VGPUsPerDevice: 1}, gpu.TeslaC2050)
	if err != nil {
		return err
	}
	defer n.rt.Close()
	srv := &serverGroup{rt: n.rt}
	r.timed(recs, func(i int, c *clientRec) {
		for _, p := range w.intraPlan[i] {
			s, conn, sc := tr.open(c)
			srv.serve(sc)
			intraSession(&s, conn, tenantNames[p.tenant])
		}
	})
	srv.wg.Wait()
	if err := r.callFailures(w.name()); err != nil {
		return err
	}

	m := n.rt.Metrics()
	r.served += m.CallsServed
	r.noteRuntime(n.rt)
	r.noteSwap("memmgr.intra_swap_us_per_launch", n.rt, int64(sessions*2*swapIters))
	if err := checkSwapIntra(m, int64(sessions)); err != nil {
		return err
	}
	r.measureHeap(w.intraRecs, w.interRecs)
	return nil
}

// intraSession allocates two working sets that each nearly fill the
// device and launches them alternately, so every launch after the
// first evicts the whole other set.
func intraSession(s *session, conn transport.Conn, tenant string) {
	cl := frontend.Connect(conn)
	defer func() {
		s.op(cl.Close())
		s.end()
	}()
	if s.op(cl.RegisterFatBinary(benchBinary)) != nil || s.op(cl.SetTenant(tenant)) != nil {
		return
	}
	var sets [2][]api.DevPtr
	for k := range sets {
		sets[k] = make([]api.DevPtr, 0, swapSetBufs)
		for b := 0; b < swapSetBufs; b++ {
			p, err := cl.Malloc(swapBufBytes)
			if s.op(err) != nil {
				return
			}
			sets[k] = append(sets[k], p)
		}
	}
	for i := 0; i < swapIters; i++ {
		for k := range sets {
			t := time.Now()
			err := cl.Launch(api.LaunchCall{
				Kernel: "spin", Grid: api.Dim3{X: 32}, Block: api.Dim3{X: 128}, PtrArgs: sets[k],
			})
			if s.timedOp(t, err) != nil {
				return
			}
		}
	}
	for k := range sets {
		for _, p := range sets[k] {
			if s.op(cl.Free(p)) != nil {
				return
			}
		}
	}
}

func (w *swapPressure) inter(r *roundRec, tr *tracer) error {
	pairs := len(w.interPairs)
	recs := resetRecs(w.interRecs)
	n, err := newArmedNode(core.Config{VGPUsPerDevice: 2, MinVictimIdle: -1}, gpu.TeslaC2050)
	if err != nil {
		return err
	}
	defer n.rt.Close()
	srv := &serverGroup{rt: n.rt}
	r.timed(recs, func(_ int, c *clientRec) {
		for _, p := range w.interPairs {
			interPair(tr, srv, c, p.tenant)
		}
	})
	srv.wg.Wait()
	if err := r.callFailures(w.name()); err != nil {
		return err
	}

	m := n.rt.Metrics()
	r.served += m.CallsServed
	r.noteRuntime(n.rt)
	r.noteSwap("memmgr.inter_swap_us_per_launch", n.rt, int64(pairs*2*swapIters))
	if err := checkSwapInter(m, int64(pairs)); err != nil {
		return err
	}
	r.measureHeap(w.intraRecs, w.interRecs)
	return nil
}

// interPair runs two sessions whose single buffers cannot share the
// device. One driver alternates their launches, so each launch finds
// the other session in a CPU phase and evicts it.
func interPair(tr *tracer, srv *serverGroup, c *clientRec, firstTenant int) {
	var (
		ss   [2]session
		cls  [2]*frontend.Client
		bufs [2]api.DevPtr
	)
	opened := 0
	defer func() {
		for k := 0; k < opened; k++ {
			ss[k].op(cls[k].Close())
			ss[k].end()
		}
	}()
	for k := range ss {
		s, conn, sc := tr.open(c)
		srv.serve(sc)
		ss[k], cls[k] = s, frontend.Connect(conn)
		opened++
		tenant := tenantNames[(firstTenant+k)%len(tenantNames)]
		if s.op(cls[k].RegisterFatBinary(benchBinary)) != nil || s.op(cls[k].SetTenant(tenant)) != nil {
			return
		}
		p, err := cls[k].Malloc(swapInterBuf)
		if s.op(err) != nil {
			return
		}
		bufs[k] = p
	}
	for i := 0; i < swapIters; i++ {
		for k := range ss {
			t := time.Now()
			err := cls[k].Launch(api.LaunchCall{Kernel: "spin", PtrArgs: []api.DevPtr{bufs[k]}})
			if ss[k].timedOp(t, err) != nil {
				return
			}
		}
	}
	for k := range ss {
		if ss[k].op(cls[k].Free(bufs[k])) != nil {
			return
		}
	}
}
