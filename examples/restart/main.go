// Node restart: an application survives a full restart of its node
// (the paper's §4.6 combines its runtime with BLCR for this; gvrt keeps
// its page tables and swap areas in a crash-consistent journal).
//
// An iterative application runs half its kernels on node 1, which
// journals every acknowledged launch. The node shuts down — compacting
// and closing its journal — and goes away, hardware and all. A brand-new
// node recovers the journal directory; the application reconnects,
// resumes its session, and finishes the remaining kernels using the same
// virtual pointers. The final result is bit-exact, as if nothing
// happened. (Killing node 1 instead of shutting it down ends the same
// way: gvrt-chaos -torture proves that half.)
//
// Run with: go run ./examples/restart
package main

import (
	"fmt"
	"gvrt/internal/cluster"
	"gvrt/internal/frontend"
	"log"
	"os"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

const binID = "examples/restart"

func init() {
	// state[i] = state[i]*3 + 1 — order-sensitive.
	api.RegisterKernelImpl(binID, "step", func(mem api.KernelMemory, scalars []uint64) error {
		buf, err := mem.Arg(0)
		if err != nil {
			return err
		}
		for i := uint64(0); i < scalars[0]; i++ {
			buf[i] = buf[i]*3 + 1
		}
		return nil
	})
}

func fatBinary() api.FatBinary {
	return api.FatBinary{
		ID:      binID,
		Kernels: []api.KernelMeta{{Name: "step", BaseTime: time.Second}},
	}
}

const (
	n     = 4
	iters = 6
)

func main() {
	clock := sim.NewClock(0.001)
	dir, err := os.MkdirTemp("", "gvrt-restart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- life on node 1 ----
	node1, err := cluster.NewNode("node-1", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	journal1, _, err := ckptlog.Open(dir, ckptlog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := node1.RT.AttachJournal(journal1); err != nil {
		log.Fatal(err)
	}
	c1 := frontend.Connect(node1.Dial())
	if err := c1.RegisterFatBinary(fatBinary()); err != nil {
		log.Fatal(err)
	}
	state, err := c1.Malloc(n)
	if err != nil {
		log.Fatal(err)
	}
	if err := c1.MemcpyHD(state, make([]byte, n)); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < iters/2; i++ {
		if err := c1.Launch(api.LaunchCall{Kernel: "step", PtrArgs: []api.DevPtr{state}, Scalars: []uint64{n}}); err != nil {
			log.Fatal(err)
		}
	}
	session, err := c1.SessionID()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 1: ran %d/%d kernels; session %d\n", iters/2, iters, session)

	// Graceful shutdown, the application still connected: fold the
	// journal into one snapshot and close it. Nothing after this reaches
	// the disk, so the connection's teardown cannot retire the session.
	if err := journal1.Compact(); err != nil {
		log.Fatal(err)
	}
	if err := journal1.Close(); err != nil {
		log.Fatal(err)
	}
	c1.Close()
	node1.Close()
	fmt.Printf("node 1: journal compacted and closed in %s — node goes down\n", dir)

	// ---- a brand-new node comes up ----
	node2, err := cluster.NewNode("node-2", clock, []gpu.Spec{gpu.TeslaC2050}, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer node2.Close()
	journal2, recovered, err := ckptlog.Open(dir, ckptlog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer journal2.Close()
	if err := node2.RT.RecoverFromJournal(recovered); err != nil {
		log.Fatal(err)
	}
	if err := node2.RT.AttachJournal(journal2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 2: recovered sessions %v\n", node2.RT.OrphanSessions())

	c2 := frontend.Connect(node2.Dial())
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		log.Fatal(err)
	}
	if err := c2.RegisterFatBinary(fatBinary()); err != nil {
		log.Fatal(err)
	}
	for i := iters / 2; i < iters; i++ {
		// The SAME virtual pointer from node 1 keeps working.
		if err := c2.Launch(api.LaunchCall{Kernel: "step", PtrArgs: []api.DevPtr{state}, Scalars: []uint64{n}}); err != nil {
			log.Fatal(err)
		}
	}
	out, err := c2.MemcpyDH(state, n)
	if err != nil {
		log.Fatal(err)
	}

	// x -> 3x+1 from 0, k times: (3^k - 1) / 2, mod 256.
	want := byte(0)
	for i := 0; i < iters; i++ {
		want = want*3 + 1
	}
	fmt.Printf("node 2: final state %v (want %d each)\n", out, want)
	for i, v := range out {
		if v != want {
			log.Fatalf("state[%d] = %d, want %d: restart corrupted data", i, v, want)
		}
	}
	fmt.Println("the application survived a full node restart with bit-exact state")
	fmt.Println("and unchanged virtual pointers (paper §4.6, BLCR-style capability).")
}
