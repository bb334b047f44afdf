package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/core"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/workload"
)

// tinySpec keeps cluster tests fast: short kernels still dominate the
// modeled durations, but wall time is negligible at this clock scale.
func tinySpec() gpu.Spec {
	return gpu.Spec{Name: "t", SMs: 1, CoresPerSM: 1, ClockMHz: 1000,
		MemBytes: 4 << 30, Speed: 1, BandwidthBps: 1 << 40}
}

func newTestCluster(t *testing.T, cfgA, cfgB core.Config) (*Head, *Node, *Node, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock(1e-7)
	a, err := NewNode("node-a", clock, []gpu.Spec{tinySpec(), tinySpec(), tinySpec()}, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("node-b", clock, []gpu.Spec{tinySpec()}, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(b)
	b.SetPeer(a)
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewHead(clock, a, b), a, b, clock
}

// fastApps builds n trivial jobs (cheap MT variants) for plumbing
// tests.
func fastApps(n int) []workload.App {
	apps := make([]workload.App, n)
	for i := range apps {
		apps[i] = workload.MT()
	}
	return apps
}

func TestObliviousSplitsJobsEvenly(t *testing.T) {
	cfg := core.Config{CallOverhead: -1}
	head, a, b, _ := newTestCluster(t, cfg, cfg)
	res := head.RunOblivious(fastApps(8))
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", res.Errors)
	}
	// Each node served half the jobs (binds count per node).
	ma, mb := a.RT.Metrics(), b.RT.Metrics()
	if ma.Binds != 4 || mb.Binds != 4 {
		t.Errorf("binds split = %d/%d, want 4/4", ma.Binds, mb.Binds)
	}
}

func TestOffloadRebalancesUnbalancedCluster(t *testing.T) {
	// Node B has 1 GPU and 1 vGPU per device, and offloads to node A
	// (3 GPUs) as soon as 2 contexts are queued beyond its capacity.
	cfgA := core.Config{CallOverhead: -1, VGPUsPerDevice: 1}
	cfgB := core.Config{CallOverhead: -1, VGPUsPerDevice: 1, OffloadThreshold: 2}
	_, a, b, clock := newTestCluster(t, cfgA, cfgB)

	// All 16 tenants connect before any starts issuing calls — the
	// batch-arrival pattern of the paper's cluster runs (at this test's
	// fast clock scale, jobs would otherwise serialize and the node
	// would never look overloaded).
	const n = 16
	barrier := make(chan struct{})
	var connected atomic.Int32
	nodes := []*Node{a, b}
	res := workload.RunBatch(clock, fastApps(n), func(i int) (workload.CUDA, error) {
		c, err := nodes[i%2].Connect()
		if connected.Add(1) == n {
			close(barrier)
		}
		<-barrier
		return c, err
	})
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", res.Errors)
	}
	mb := b.RT.Metrics()
	if mb.Offloaded == 0 {
		t.Errorf("overloaded node never offloaded (metrics: %+v)", mb)
	}
	// Offloaded jobs really ran on node A: it served more binds than
	// its own half of the batch.
	if a.RT.Metrics().Binds <= 8 {
		t.Errorf("node A binds = %d, want > 8 (its own share)", a.RT.Metrics().Binds)
	}
}

func TestClusterResultSanity(t *testing.T) {
	res, err := obliviousRun()
	if err != nil {
		t.Fatal(err)
	}
	checkClusterResult(t, res)
}

// obliviousRun runs four MT jobs obliviously over a three-GPU node and
// a one-GPU node. Timing assertions need a scale where modeled sleeps
// dominate wall noise: 1 model second = 1 wall millisecond.
func obliviousRun() (workload.BatchResult, error) {
	clock := sim.NewClock(1e-3)
	cfg := core.Config{CallOverhead: -1}
	a, err := NewNode("a", clock, []gpu.Spec{tinySpec(), tinySpec(), tinySpec()}, cfg)
	if err != nil {
		return workload.BatchResult{}, err
	}
	defer a.Close()
	b, err := NewNode("b", clock, []gpu.Spec{tinySpec()}, cfg)
	if err != nil {
		return workload.BatchResult{}, err
	}
	defer b.Close()
	return NewHead(clock, a, b).RunOblivious(fastApps(4)), nil
}

func checkClusterResult(t *testing.T, res workload.BatchResult) {
	t.Helper()
	if res.Failed() != 0 {
		t.Fatal(res.Errors)
	}
	if res.Total < res.Max() {
		t.Errorf("Total %v < Max job %v", res.Total, res.Max())
	}
	if res.Avg <= 0 || res.Avg > res.Total {
		t.Errorf("Avg %v out of range (Total %v)", res.Avg, res.Total)
	}
	// A single MT job takes ~3 model seconds; with 4 GPUs everything
	// should overlap: total well below the ~12s serial sum.
	if res.Total > 8*time.Second {
		t.Errorf("Total %v suspiciously close to serial execution", res.Total)
	}
}

func TestNodeWithoutPeerServesLocally(t *testing.T) {
	clock := sim.NewClock(1e-7)
	n, err := NewNode("solo", clock, []gpu.Spec{tinySpec()},
		core.Config{CallOverhead: -1, VGPUsPerDevice: 1, OffloadThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Even with the offload threshold exceeded, a peerless node must
	// fall back to serving locally.
	res := workload.RunBatch(clock, fastApps(3), func(i int) (workload.CUDA, error) {
		return n.Connect()
	})
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", res.Errors)
	}
	if n.RT.Metrics().Binds != 3 {
		t.Errorf("Binds = %d, want 3", n.RT.Metrics().Binds)
	}
}

// TestThreeNodeRingOffload: offloading composes around a ring of three
// nodes — each overloaded node sheds to the next.
func TestThreeNodeRingOffload(t *testing.T) {
	clock := sim.NewClock(1e-7)
	mk := func(name string, gpus int, threshold int) *Node {
		specs := make([]gpu.Spec, gpus)
		for i := range specs {
			specs[i] = tinySpec()
		}
		n, err := NewNode(name, clock, specs,
			core.Config{CallOverhead: -1, VGPUsPerDevice: 1, OffloadThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk("a", 1, 2)
	b := mk("b", 1, 2)
	c := mk("c", 4, 0) // the big node absorbs
	a.SetPeer(b)
	b.SetPeer(c)
	c.SetPeer(a)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	// All 12 jobs hit node A simultaneously.
	const n = 12
	barrier := make(chan struct{})
	var connected atomic.Int32
	res := workload.RunBatch(clock, fastApps(n), func(i int) (workload.CUDA, error) {
		conn, err := a.Connect()
		if connected.Add(1) == n {
			close(barrier)
		}
		<-barrier
		return conn, err
	})
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", res.Errors)
	}
	if a.RT.Metrics().Offloaded == 0 {
		t.Error("node A never offloaded")
	}
	// Work reached at least one other node.
	if b.RT.Metrics().Binds+c.RT.Metrics().Binds == 0 {
		t.Error("no work reached the peers")
	}
}
