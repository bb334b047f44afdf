package cluster

import (
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/failover"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// connectFull opens a node connection with the full client surface
// (SessionID, Resume, Stats) rather than the workload.CUDA subset.
func connectFull(t *testing.T, n *Node) *frontend.Client {
	t.Helper()
	c, err := n.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return c.(*frontend.Client)
}

// failoverBinID registers a deterministic increment kernel for data
// verification across a node takeover.
const failoverBinID = "cluster-failover-bin"

func failoverBinary() api.FatBinary {
	return api.FatBinary{
		ID:      failoverBinID,
		Kernels: []api.KernelMeta{{Name: "inc", BaseTime: time.Millisecond}},
	}
}

func init() {
	api.RegisterKernelImpl(failoverBinID, "inc", func(mem api.KernelMemory, scalars []uint64) error {
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

// TestFencedPermanentNoRetryBudget: a deposed owner's mutating call
// reaches the application as ErrFenced through a node's own client —
// no write can succeed once the lease moved — while its non-mutating
// calls keep working so operators can observe a fenced node.
func TestFencedPermanentNoRetryBudget(t *testing.T) {
	clock := sim.NewClock(1e-7)
	table := failover.NewTable(5*time.Second, clock.Now)
	n, err := NewNode("node-a", clock, []gpu.Spec{tinySpec()},
		core.Config{CallOverhead: -1, Leases: table})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	c := connectFull(t, n)
	defer c.Close()
	if _, err := c.Malloc(64); err != nil {
		t.Fatal(err)
	}
	session, err := c.SessionID()
	if err != nil || session == 0 {
		t.Fatalf("SessionID = %d, %v", session, err)
	}
	if l, ok := table.Lookup(session); !ok || l.Owner != "node-a" {
		t.Fatalf("lease after connect = %+v, %v; want owned by node-a", l, ok)
	}

	// Another node steals ownership (modeled as a revocation: epoch
	// bumps, owner cleared — the deposed node's epoch can never match
	// again).
	table.Revoke(session)

	if _, err := c.Malloc(64); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("mutating call after revoke err = %v, want ErrFenced", err)
	}
	if m := n.RT.Metrics(); m.FenceRejections == 0 {
		t.Error("FenceRejections = 0, want >= 1")
	}

	// Non-mutating calls (stats) still work on the deposed connection so
	// operators can observe a fenced node.
	if _, err := c.Stats(); err != nil {
		t.Errorf("Stats on fenced session: %v", err)
	}
}

// TestAutoFailover drives promotion end to end: a journaled session runs
// on node A, node A dies without releasing its lease, and once the lease
// has lapsed the operator adopts A's journal directory onto node B, whose
// client resume claims the lease and finds every acknowledged kernel
// intact.
func TestAutoFailover(t *testing.T) {
	clock := sim.NewClock(1e-7)
	table := failover.NewTable(2*time.Second, clock.Now)
	dir := t.TempDir()

	j1, rec1, err := ckptlog.Open(dir, ckptlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNode("node-a", clock, []gpu.Spec{tinySpec()},
		core.Config{CallOverhead: -1, Leases: table})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RT.RecoverFromJournal(rec1); err != nil {
		t.Fatal(err)
	}
	if err := a.RT.AttachJournal(j1); err != nil {
		t.Fatal(err)
	}
	// The target's own sessions start far above the source's so adopted
	// IDs never collide.
	b, err := NewNode("node-b", clock, []gpu.Spec{tinySpec()},
		core.Config{CallOverhead: -1, Leases: table, SessionBase: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c1 := connectFull(t, a)
	if err := c1.RegisterFatBinary(failoverBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c1.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.MemcpyHD(p, []byte{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}
	for i := 0; i < 2; i++ {
		if err := c1.Launch(inc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c1.Launch(inc); err != nil {
			t.Fatal(err)
		}
	}
	session, err := c1.SessionID()
	if err != nil || session == 0 {
		t.Fatalf("SessionID = %d, %v", session, err)
	}

	// Node A dies: the journal freezes (a SIGKILL drops the teardown
	// release record) and the node stops renewing its lease. An
	// in-process Close still runs the graceful teardown — which releases
	// the lease — so re-plant node-a's ownership afterwards: that is
	// exactly the table state a real SIGKILL leaves behind.
	j1.Close()
	c1.Close()
	a.Close()
	if _, err := table.Acquire(session, "node-a"); err != nil {
		t.Fatal(err)
	}

	// The lease lapses in model time; then the operator promotes node B.
	clock.Sleep(3 * time.Second)
	if n, err := b.RT.AdoptJournalDir(dir); err != nil || n != 1 {
		t.Fatalf("AdoptJournalDir = %d, %v; want 1 session", n, err)
	}
	if got := b.RT.OrphanSessions(); len(got) != 1 || got[0] != session {
		t.Fatalf("orphans after adoption = %v, want [%d]", got, session)
	}

	// The client reconnects to the new owner and resumes: 2 committed +
	// 3 replayed + 1 fresh increments.
	c2 := connectFull(t, b)
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterFatBinary(failoverBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Launch(inc); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{16, 26, 36}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("data after failover = %v, want %v", out, want)
		}
	}
	// Node A held epoch 1; node B's claim of the lapsed lease is epoch 2.
	if l, ok := table.Lookup(session); !ok || l.Owner != "node-b" || l.Epoch != 2 {
		t.Fatalf("lease after failover = %+v, %v; want node-b at epoch 2", l, ok)
	}
}
