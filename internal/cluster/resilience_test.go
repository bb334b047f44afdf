package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

const resBinID = "cluster-resilience-bin"

func init() {
	api.RegisterKernelImpl(resBinID, "inc", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		for i := 0; i < int(scalars[0]); i++ {
			buf[i]++
		}
		return nil
	})
}

// resJob pushes one data-checked roundtrip through a deadline-bounded
// connection to node b: register, malloc, seed, 4 increments, verify.
func resJob(b *Node, seed byte) error {
	conn := transport.WithDeadline(b.Dial(), b.clock, 5*time.Minute)
	c := frontend.Connect(conn)
	defer c.Close()
	if err := c.RegisterFatBinary(api.FatBinary{
		ID:      resBinID,
		Kernels: []api.KernelMeta{{Name: "inc", BaseTime: time.Millisecond}},
	}); err != nil {
		return err
	}
	p, err := c.Malloc(1 << 12)
	if err != nil {
		return err
	}
	if err := c.MemcpyHD(p, []byte{seed, seed, seed, seed}); err != nil {
		return err
	}
	for k := 0; k < 4; k++ {
		if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}); err != nil {
			return err
		}
	}
	out, err := c.MemcpyDH(p, 4)
	if err != nil {
		return err
	}
	for i := range out {
		if out[i] != seed+4 {
			return fmt.Errorf("data corruption: byte %d = %d, want %d", i, out[i], seed+4)
		}
	}
	return nil
}

// TestPartitionAndHealSelfHeals: a seeded fault plan partitions the
// overloaded node's peer link mid-offload AND kills its only device;
// application threads keep hammering the node throughout, and the
// arrivals it would offload are served locally instead. Then both
// faults clear: every application thread must finish with verified
// data, with no call outliving its deadline; the device must be
// re-admitted with a device-level recovery event; and the healed link
// must carry offloads again from the next dial on.
func TestPartitionAndHealSelfHeals(t *testing.T) {
	plan := faultinject.Plan{
		Name: "partition-and-heal",
		Seed: 20260805,
		Rules: []faultinject.Rule{
			// B's outbound link partitions for good mid-offload...
			{Point: faultinject.PointClusterLink, Label: "node-b", AtNth: 8, Action: faultinject.ActPartition},
			// ...and B's only GPU dies shortly after its 5th kernel.
			{Point: faultinject.PointDeviceExec, Label: "gpu0", AtNth: 5, Action: faultinject.ActFailDevice},
		},
	}
	plane := faultinject.New(plan)
	rec := trace.NewRecorder(1024)
	var refusedDials atomic.Int32
	cfgA := core.Config{CallOverhead: -1, VGPUsPerDevice: 1}
	cfgB := core.Config{CallOverhead: -1, VGPUsPerDevice: 1, OffloadThreshold: 2,
		Faults: plane, Trace: rec, OnEvent: func(e trace.Event) {
			if e.Kind == trace.KindNote && strings.HasPrefix(e.Detail, "offload dial failed") {
				refusedDials.Add(1)
			}
		}}
	_, _, b, _ := newTestCluster(t, cfgA, cfgB)

	// Application threads: keep issuing data-checked roundtrips (feeding
	// the offload path, the link and the device) until the cluster has
	// healed AND their latest roundtrip verified clean. A failure during
	// the outage reaches the thread as its code, and the thread tries
	// again on a new connection: no call hangs, so it always can.
	const jobs = 10
	healed := make(chan struct{})
	var unfinished atomic.Int32
	unfinished.Store(jobs)
	var wg sync.WaitGroup
	deadline := time.Now().Add(60 * time.Second)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := resJob(b, byte(j))
				if err == nil {
					select {
					case <-healed:
						unfinished.Add(-1)
						return
					default:
						continue // keep the pressure on until the faults clear
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(j)
	}

	// Phase 1: both faults fire under load, and the partitioned link
	// refuses an offload dial, so that arrival is served locally.
	link := plane.Hook(faultinject.PointClusterLink, "node-b")
	dev := b.CRT.Device(0)
	waitFor(t, deadline, "link partition and device failure", func() bool {
		return link.Down() && dev.Failed()
	})
	waitFor(t, deadline, "an offload dial refused by the partition", func() bool {
		return refusedDials.Load() > 0
	})

	// Phase 2: both faults clear (partition heals, operator restores the
	// device).
	link.Heal()
	dev.Restore()
	close(healed)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(deadline) + 5*time.Second):
		t.Fatalf("application threads hung after heal; reproduce with plan %q seed %d",
			plan.Name, plane.Seed())
	}
	if n := unfinished.Load(); n != 0 {
		t.Fatalf("%d/%d application threads never finished a verified roundtrip after heal", n, jobs)
	}

	// Phase 3: the device was re-admitted, with the device-level
	// recovery event...
	waitFor(t, time.Now().Add(15*time.Second), "device re-admission", func() bool {
		return b.RT.Metrics().Readmissions > 0
	})
	found := false
	for _, e := range rec.Filter(trace.KindRecovery) {
		if e.Device == 0 && e.Detail == "device re-admitted" {
			found = true
		}
	}
	if !found {
		t.Error("no device-level recovery event in node B's trace")
	}

	// ...and the healed link carries offloads again. Two ballast
	// sessions, the first holding B's only vGPU, put B over its
	// threshold, so the next arrival goes to the peer and verifies
	// there.
	waitFor(t, time.Now().Add(15*time.Second), "node B's job contexts torn down", func() bool {
		return b.RT.Metrics().LiveContexts == 0
	})
	before := b.RT.Metrics().Offloaded
	for k := 0; k < 2; k++ {
		ballast := frontend.Connect(b.Dial())
		defer ballast.Close()
		ok(t, ballast.RegisterFatBinary(api.FatBinary{
			ID:      resBinID,
			Kernels: []api.KernelMeta{{Name: "inc", BaseTime: time.Millisecond}},
		}))
		p, err := ballast.Malloc(1 << 12)
		ok(t, err)
		if k == 0 {
			ok(t, ballast.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}))
		}
	}
	if off := b.RT.Metrics().Offloaded; off != before {
		t.Fatalf("a ballast session was offloaded (%d -> %d); node B was not idle", before, off)
	}
	err := resJob(b, 42)
	m := b.RT.Metrics()
	if m.Offloaded != before+1 {
		t.Fatalf("Offloaded = %d after heal, want %d: the healed link took no offload (roundtrip: %v)",
			m.Offloaded, before+1, err)
	}
	if err != nil {
		t.Fatalf("roundtrip over the healed link: %v", err)
	}
	t.Logf("self-heal: refused dials=%d readmissions=%d offloaded=%d sheds=%d",
		refusedDials.Load(), m.Readmissions, m.Offloaded, m.Sheds)
}

// waitFor polls cond until it holds or the wall deadline passes.
func waitFor(t *testing.T, deadline time.Time, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if !time.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
