package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
)

// clientRec is one load-generating goroutine's private record of a
// timed region. Its buffers are allocated before the region starts, so
// recording a latency never allocates inside it.
type clientRec struct {
	lat       []int64 // client-observed ns of every call in the iteration loop
	sess      []int64 // ns of every whole session, connect to close
	attempted int64   // client calls issued
	failed    int64   // client calls that returned an error
	err       error   // first error seen, for the failure report
}

func newClientRecs(n, latCap, sessCap int) []*clientRec {
	out := make([]*clientRec, n)
	for i := range out {
		out[i] = &clientRec{lat: make([]int64, 0, latCap), sess: make([]int64, 0, sessCap)}
	}
	return out
}

// resetRecs empties the records for the next round, keeping their
// buffers: a workload allocates its records once, so the benchmark's
// own heap is the same at every round's heap measurement.
func resetRecs(recs []*clientRec) []*clientRec {
	for _, c := range recs {
		*c = clientRec{lat: c.lat[:0], sess: c.sess[:0]}
	}
	return recs
}

// sampleBytes is the heap the records' sample buffers occupy.
func sampleBytes(groups ...[]*clientRec) uint64 {
	var n uint64
	for _, recs := range groups {
		for _, c := range recs {
			n += uint64(cap(c.lat)+cap(c.sess)) * 8
		}
	}
	return n
}

// session is one application thread's life as the load generator sees
// it: where its calls are counted and, in a traced run, which trace its
// spans belong to.
type session struct {
	c     *clientRec
	ct    *connTrace // nil in an untraced run
	start time.Time
}

// op counts one client call that is not part of the iteration loop
// (register, malloc, free, close): attempted and possibly failed, but
// not a latency sample.
func (s *session) op(err error) error {
	c := s.c
	c.attempted++
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
	}
	return err
}

// timedOp counts one iteration-loop call issued at start.
func (s *session) timedOp(start time.Time, err error) error {
	dur := int64(time.Since(start))
	s.c.lat = append(s.c.lat, dur)
	if s.ct != nil {
		s.ct.frontendCall(start, dur)
	}
	return s.op(err)
}

// end records the session's whole duration, connect to close.
func (s *session) end() {
	s.c.sess = append(s.c.sess, int64(time.Since(s.start)))
	if s.ct != nil {
		s.ct.finish()
	}
}

// roundRec accumulates everything measured in one round. A round may
// have several timed regions (swap-pressure has two); wall, CPU and
// allocation deltas add up over them and exclude whatever happens
// between them (node builds, invariant checks).
type roundRec struct {
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPause   time.Duration
	served    int64 // calls the runtimes report as served, summed by the workload
	recs      []*clientRec
	attempted int64
	failed    int64
	firstErr  error
	heapLive  uint64

	// Client-observed latency percentiles of the round, in ns, set by
	// reduce from the pooled samples of every timed region.
	timedCalls       int
	p50, p99, sesP50 float64

	// Per-layer values: counters the program already keeps (note*),
	// plus span totals when the round was traced (tracer.flush).
	layer   map[string]float64
	childNS float64 // host ns the program attributes to work below dispatch
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs body once per client record, each on its own goroutine,
// and charges the region's wall time, process CPU time, heap
// allocations and GC activity to the round. The heap is collected first
// so every region starts from the same GC phase.
func (r *roundRec) timed(recs []*clientRec, body func(i int, c *clientRec)) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range recs {
		wg.Add(1)
		go func(i int, c *clientRec) {
			defer wg.Done()
			body(i, c)
		}(i, c)
	}
	wg.Wait()
	r.wall += time.Since(t0)
	r.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.bytes += m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles += m1.NumGC - m0.NumGC
	r.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, c := range recs {
		r.attempted += c.attempted
		r.failed += c.failed
		if r.firstErr == nil {
			r.firstErr = c.err
		}
	}
	r.recs = append(r.recs, recs...)
}

// reduce turns the clients' latency samples into the round's
// percentiles and lets go of the records, so a finished round holds no
// buffers.
func (r *roundRec) reduce() {
	var lat, sess []int64
	for _, c := range r.recs {
		lat = append(lat, c.lat...)
		sess = append(sess, c.sess...)
	}
	r.recs = nil
	r.timedCalls = len(lat)
	r.p50, r.p99 = percentileNS(lat, 0.50), percentileNS(lat, 0.99)
	r.sesP50 = percentileNS(sess, 0.50)
}

// measureHeap records the live heap after a forced collection, less the
// workload's sample buffers (all of them: they live as long as the
// workload). The caller keeps the round's nodes referenced across the
// call, so what is counted beyond the process's constant baseline is
// what the program retains for a finished round's work. A round with
// several nodes reports the largest.
func (r *roundRec) measureHeap(buffers ...[]*clientRec) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	if live := m.HeapAlloc - sampleBytes(buffers...); live > r.heapLive {
		r.heapLive = live
	}
}

// modelNS converts a histogram sum in model nanoseconds into host
// nanoseconds at the benchmark's clock scale.
func modelNS(sum int64) float64 { return float64(sum) * clockScale }

func meanOr0(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// noteRuntime folds what a runtime counted during the round into the
// round's per-layer values. These are the children of core.handle the
// program already accounts for: dispatch self-time is the traced
// handle time minus their sum. QueueWait is part of BindWait and
// SwapDur contains the per-entry (unbatched) D2H copies, so the sum
// slightly overstates the children; it never understates dispatch.
func (r *roundRec) noteRuntime(rt *core.Runtime) {
	t := rt.Timings()
	m := rt.Metrics()
	bind, queue := t.BindWait.Snapshot(), t.QueueWait.Snapshot()
	swap, h2d, d2h := t.SwapDur.Snapshot(), t.H2D.Snapshot(), t.D2H.Snapshot()
	commit := t.JournalCommitWall.Snapshot()
	r.layer["core.bind_wait_us"] += meanOr0(modelNS(bind.Sum), bind.Count) / 1e3
	r.layer["core.queue_wait_us"] += meanOr0(modelNS(queue.Sum), queue.Count) / 1e3
	r.layer["core.prefetch_hits"] += float64(m.PrefetchHits)
	r.layer["memmgr.swap_ops"] += float64(m.Memory.SwapOps)
	r.layer["memmgr.dedup_saved_bytes"] += float64(t.DedupSaved.Snapshot().Sum)
	r.childNS += modelNS(bind.Sum) + modelNS(swap.Sum) + modelNS(h2d.Sum) + modelNS(d2h.Sum) + float64(commit.Sum)
}

// noteSwap records the host time the memory manager spent evicting and
// restoring (SwapDur + D2H + H2D) per launch of one swap-pressure phase.
func (r *roundRec) noteSwap(name string, rt *core.Runtime, launches int64) {
	t := rt.Timings()
	ns := modelNS(t.SwapDur.Snapshot().Sum) + modelNS(t.D2H.Snapshot().Sum) + modelNS(t.H2D.Snapshot().Sum)
	r.layer[name] = meanOr0(ns, launches) / 1e3
}

// noteJournal records what one durable kernel commit cost: the
// program's own wall-clock histogram of journalCommit, and the
// journal's fsync and byte counters per acknowledged launch.
func (r *roundRec) noteJournal(js ckptlog.Stats, rt *core.Runtime, launches int64) {
	commit := rt.Timings().JournalCommitWall.Snapshot()
	r.layer["ckptlog.commit_wall_us"] = meanOr0(float64(commit.Sum), commit.Count) / 1e3
	r.layer["ckptlog.syncs_per_commit"] = meanOr0(float64(js.Syncs), launches)
	r.layer["ckptlog.bytes_per_commit"] = meanOr0(float64(js.Bytes), launches)
}

// callFailures reports the round's failed client calls as the validity
// failure they are: every workload is built so that no call fails, and
// a read-back that is not byte-equal counts as a failed call.
func (r *roundRec) callFailures(workload string) error {
	if r.failed == 0 {
		return nil
	}
	return invariant(workload, "%d of %d calls failed, first: %v", r.failed, r.attempted, r.firstErr)
}
