package cluster

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/opserver"
	"gvrt/internal/sim"
)

// smallMemSpec is a device with just 1 MiB left after the two vGPU
// context reservations (2 x 64 MiB), so two 600 KiB working sets
// cannot coexist — forcing inter-application swaps with real bytes.
func smallMemSpec() gpu.Spec {
	return gpu.Spec{Name: "t", SMs: 1, CoresPerSM: 1, ClockMHz: 1000,
		MemBytes: 129 << 20, Speed: 1, BandwidthBps: 1 << 40}
}

func obsBinary() api.FatBinary {
	return api.FatBinary{
		ID:      "cluster-obs-bin",
		Kernels: []api.KernelMeta{{Name: "work", BaseTime: time.Millisecond}},
	}
}

// tenantClient opens a client on n joined to the given tenant with a
// dirty 600 KiB working set.
func tenantClient(t *testing.T, n *Node, tenant string) (*frontend.Client, api.DevPtr) {
	t.Helper()
	c := frontend.Connect(n.Dial())
	if err := c.RegisterFatBinary(obsBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTenant(tenant); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(600 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, make([]byte, 600<<10)); err != nil {
		t.Fatal(err)
	}
	return c, p
}

// TestClusterAttributionConservation is the tentpole acceptance check:
// two tenants spread over two nodes, with swap pressure on one of them,
// must have >= 99% of the cluster's GPU time and swap bytes attributed
// to a tenant in the fleet-merged view (here 100%: every session joins
// a tenant), and the per-tenant usage endpoint plus the cluster
// Prometheus exposition must agree with it.
func TestClusterAttributionConservation(t *testing.T) {
	clock := sim.NewClock(1e-7)
	cfg := func() core.Config {
		return core.Config{CallOverhead: -1, BindBackoff: time.Millisecond, VGPUsPerDevice: 2}
	}
	n1, err := NewNode("node-1", clock, []gpu.Spec{smallMemSpec()}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode("node-2", clock, []gpu.Spec{smallMemSpec()}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close(); n2.Close() })

	// Node 1: tenants alpha and beta contend for one small device; the
	// alternating launches force inter-app swaps of dirty data.
	a, pa := tenantClient(t, n1, "alpha")
	b, pb := tenantClient(t, n1, "beta")
	defer a.Close()
	defer b.Close()
	// Node 2: alpha runs alone (the cross-node attribution leg).
	c, pc := tenantClient(t, n2, "alpha")
	defer c.Close()

	idle := func() { time.Sleep(2 * time.Millisecond) }
	launch := func(cl *frontend.Client, p api.DevPtr) {
		t.Helper()
		if err := cl.Launch(api.LaunchCall{Kernel: "work", PtrArgs: []api.DevPtr{p}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		launch(a, pa)
		idle()
		launch(b, pb)
		idle()
		launch(c, pc)
	}
	for _, cl := range []*frontend.Client{a, b, c} {
		if err := cl.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}

	fleet := FleetCollector(n1, n2)
	cs := fleet.Collect()
	if len(cs.Unreachable) != 0 {
		t.Fatalf("unreachable nodes: %v", cs.Unreachable)
	}
	m := cs.Merged
	if m.GPUTimeNS == 0 {
		t.Fatal("no GPU time recorded")
	}
	if m.SwapBytes == 0 {
		t.Fatal("no swap bytes recorded — the pressure leg of the test is dead")
	}
	if len(m.Tenants) != 2 {
		t.Fatalf("merged tenants = %v, want alpha+beta", m.Tenants)
	}

	var gpu, swap int64
	for _, u := range m.Tenants {
		gpu += u.GPUTimeNS
		swap += u.SwapBytes
	}
	if frac := float64(gpu) / float64(m.GPUTimeNS); frac < 0.99 || frac > 1.0 {
		t.Errorf("attributed GPU time fraction = %.4f (%d of %d), want [0.99, 1]", frac, gpu, m.GPUTimeNS)
	}
	if frac := float64(swap) / float64(m.SwapBytes); frac < 0.99 || frac > 1.0 {
		t.Errorf("attributed swap bytes fraction = %.4f (%d of %d), want [0.99, 1]", frac, swap, m.SwapBytes)
	}

	// alpha ran on both nodes: its merged usage must exceed what either
	// node alone attributes, proving cross-node folding.
	alphaMerged := m.Tenants["alpha"].GPUTimeNS
	for name, ns := range cs.Nodes {
		if local := ns.Tenants["alpha"].GPUTimeNS; local >= alphaMerged {
			t.Errorf("node %s alone attributes %d >= merged %d for alpha", name, local, alphaMerged)
		}
	}

	// The operator surfaces must tell the same story: per-tenant usage
	// endpoint (local and cluster scope) and the cluster exposition.
	h := opserver.Handler(opserver.Source{
		Stats: n1.RT.Metrics,
		Now:   clock.Now,
		Name:  n1.Name,
		Fleet: fleet,
	})
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
		}
		return w
	}
	var usage api.TenantUsage
	if err := json.NewDecoder(get("/tenants/alpha/usage?scope=cluster").Body).Decode(&usage); err != nil {
		t.Fatal(err)
	}
	if usage.GPUTimeNS != alphaMerged {
		t.Errorf("/tenants/alpha/usage?scope=cluster GPU time = %d, want %d", usage.GPUTimeNS, alphaMerged)
	}
	var local api.TenantUsage
	if err := json.NewDecoder(get("/tenants/alpha/usage").Body).Decode(&local); err != nil {
		t.Fatal(err)
	}
	if local.GPUTimeNS != cs.Nodes["node-1"].Tenants["alpha"].GPUTimeNS {
		t.Errorf("local usage = %d, want node-1's %d", local.GPUTimeNS, cs.Nodes["node-1"].Tenants["alpha"].GPUTimeNS)
	}

	body := get("/metrics?scope=cluster").Body.String()
	for _, want := range []string{
		`gvrt_tenant_gpu_seconds_total{tenant="alpha"}`,
		`gvrt_tenant_gpu_seconds_total{tenant="beta"}`,
		`gvrt_tenant_swap_bytes_total{tenant=`,
		"gvrt_cluster_nodes 2",
		"gvrt_gpu_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("cluster exposition missing %q", want)
		}
	}
	wantLine := fmt.Sprintf("gvrt_tenant_gpu_seconds_total{tenant=%q} ", "alpha")
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, wantLine) {
			var v float64
			if _, err := fmt.Sscanf(line[len(wantLine):], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if got := int64(v * 1e9); !within(got, alphaMerged, alphaMerged/100+1) {
				t.Errorf("exposition alpha GPU seconds = %d ns, want ~%d", got, alphaMerged)
			}
		}
	}
}

func within(got, want, tol int64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
