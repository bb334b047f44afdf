package main

import (
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// clockScale makes modelled device time vanish against host time, so
// what a round measures is the framework's own cost (the paper's §5
// "overhead"). A sim.Clock at this scale overflows its int64 model time
// after ~9.2 s of wall time, one reason every round builds a fresh node.
const clockScale = 1e-9

// tenantNames are the two tenants every armed node carries quotas for.
var tenantNames = [2]string{"tenant-a", "tenant-b"}

// benchBinary is the fat binary every session registers: one short
// kernel without a host implementation, so a launch costs dispatch and
// leaves device bytes untouched (which is what lets durable-commit
// compare a read-back against what it wrote).
var benchBinary = api.FatBinary{
	ID:      "gvrt-benchmark",
	Kernels: []api.KernelMeta{{Name: "spin", BaseTime: 50 * time.Microsecond}},
}

// node is one freshly built simulated node.
type node struct {
	clock *sim.Clock
	crt   *cudart.Runtime
	rt    *core.Runtime
}

// newNode builds a runtime over fresh devices on a fresh clock, exactly
// as configured: no lease fence, no tenant quotas unless cfg says so.
func newNode(cfg core.Config, specs ...gpu.Spec) (*node, error) {
	return buildNode(sim.NewClock(clockScale), cfg, specs)
}

// newArmedNode is newNode with the multi-tenant machinery switched on
// the way a production node runs it: the lease write fence on every
// mutating call (cfg.Leases, or a fresh table on the node's clock when
// nil) and a non-binding quota for both tenants, so a session's
// SetTenant goes through admission and every Malloc through the
// byte-quota check.
func newArmedNode(cfg core.Config, specs ...gpu.Spec) (*node, error) {
	clock := sim.NewClock(clockScale)
	if cfg.Leases == nil {
		cfg.Leases = failover.NewTable(0, clock.Now)
	}
	n, err := buildNode(clock, cfg, specs)
	if err != nil {
		return nil, err
	}
	for _, t := range tenantNames {
		if err := n.rt.ApplyQuota(t, 1<<20, 1<<50); err != nil {
			n.rt.Close()
			return nil, err
		}
	}
	return n, nil
}

func buildNode(clock *sim.Clock, cfg core.Config, specs []gpu.Spec) (*node, error) {
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	crt := cudart.New(clock, devs...)
	rt, err := core.New(crt, cfg)
	if err != nil {
		return nil, err
	}
	return &node{clock: clock, crt: crt, rt: rt}, nil
}

// h2dOps sums host→device DMA submissions over the node's devices.
func (n *node) h2dOps() int64 {
	var ops int64
	for _, d := range n.crt.Devices() {
		ops += d.Stats().H2DOps
	}
	return ops
}
