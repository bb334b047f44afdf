// Command gvrt-bench is the repository's macro-benchmark: it drives
// thousands of concurrent client sessions against freshly built
// single- and multi-node simulated clusters and records the runtime's
// framework throughput as one benchfmt trajectory file (BENCH_<n>.json,
// one per PR, never overwritten — see EXPERIMENTS.md).
//
// The headline scenarios run at clock scale 1e-9, which makes modeled
// GPU time vanish against wall time: what remains is the cost of the
// runtime itself — dispatch, binding, the memory manager and the
// transport — exactly the paths the per-device sharding work targets.
// Latency quantiles come from the runtime's Timings histograms
// converted to wall-clock microseconds (model time × clock scale).
//
// Usage:
//
//	gvrt-bench -pr 6 -out BENCH_6.json            # full trajectory run
//	gvrt-bench -quick -out /tmp/bench.json        # CI smoke scale
//	gvrt-bench -quick -baseline BENCH_6.json      # + p99 regression gate
//	gvrt-bench -validate BENCH_6.json             # schema check only
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/benchfmt"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
	"gvrt/internal/workload"
)

// benchScale makes modeled time negligible against wall time so the
// measurement isolates framework overhead (same choice as the repo's
// micro-benchmarks in bench_test.go).
const benchScale = 1e-9

type sizes struct {
	sessions int // concurrent client sessions (multi-device)
	iters    int // h2d+launch iterations per session
	nodeSess int // sessions for the multi-node scenario
	swapSess int // sessions for the swap-pressure scenario
	swapIter int // launches per swap-pressure session
	mixJobs  int // jobs for the paper-mix scenario
}

func fullSizes() sizes  { return sizes{2000, 20, 400, 6, 40, 48} }
func quickSizes() sizes { return sizes{200, 10, 80, 4, 10, 12} }

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced scale for CI smoke runs")
		out      = flag.String("out", "", "write the report to this file (default stdout)")
		pr       = flag.Int("pr", 6, "PR ordinal recorded in the report")
		label    = flag.String("label", "", "free-form label for the code state measured")
		only     = flag.String("scenario", "", "comma-separated scenario filter (default all)")
		sessions = flag.Int("sessions", 0, "override multi-device session count")
		seed     = flag.Int64("seed", 1, "workload seed for the paper-mix scenario")
		baseline = flag.String("baseline", "", "compare p99 launch latency against this report")
		maxRatio = flag.Float64("max-p99-ratio", 2.0, "regression gate for -baseline")
		validate = flag.String("validate", "", "validate this report file and exit")
		hist     = flag.Bool("hist", false, "dump swap-path histogram quantiles to stderr")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the scenario runs to this file")
		attrGate = flag.Bool("attr-gate", false, "attribution overhead gate: run swap-pressure and multi-device twice (sessions joined to tenants vs not), best of 3 each, and fail if attribution costs more than 1-attr-min-ratio of calls/sec")
		attrMin  = flag.Float64("attr-min-ratio", 0.98, "minimum attributed/plain calls-per-sec ratio for -attr-gate")
	)
	flag.Parse()
	dumpHist = *hist

	if *validate != "" {
		if _, err := benchfmt.ReadFile(*validate); err != nil {
			fatalf("validate: %v", err)
		}
		fmt.Printf("%s: valid %s report\n", *validate, benchfmt.Schema)
		return
	}

	sz := fullSizes()
	if *quick {
		sz = quickSizes()
	}
	if *sessions > 0 {
		sz.sessions = *sessions
	}

	if *attrGate {
		os.Exit(runAttrGate(sz, *attrMin))
	}

	type scenarioFn struct {
		name string
		run  func(sizes, int64) (benchfmt.Scenario, error)
	}
	all := []scenarioFn{
		{"multi-device", runMultiDevice},
		{"multi-node", runMultiNode},
		{"swap-pressure", runSwapPressure},
		{"paper-mix", runPaperMix},
	}
	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := &benchfmt.Report{Schema: benchfmt.Schema, PR: *pr, Label: *label, Quick: *quick}
	for _, sc := range all {
		if len(want) > 0 && !want[sc.name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "gvrt-bench: running %s...\n", sc.name)
		s, err := sc.run(sz, *seed)
		if err != nil {
			fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(os.Stderr, "gvrt-bench: %s: %.0f calls/sec, launch p50/p99 %.1f/%.1f us\n",
			s.Name, s.CallsPerSec, s.LaunchP50US, s.LaunchP99US)
		rep.Scenarios = append(rep.Scenarios, s)
	}

	if err := benchfmt.Validate(rep); err != nil {
		fatalf("emitted report invalid: %v", err)
	}
	b, err := benchfmt.Encode(rep)
	if err != nil {
		fatalf("%v", err)
	}
	if *out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}

	if *baseline != "" {
		base, err := benchfmt.ReadFile(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		if bad := benchfmt.CompareP99(base, rep, *maxRatio); len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintf(os.Stderr, "gvrt-bench: REGRESSION: %s\n", m)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gvrt-bench: p99 gate vs %s passed (<= %.1fx)\n", *baseline, *maxRatio)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gvrt-bench: "+format+"\n", args...)
	os.Exit(1)
}

// runAttrGate is the attribution overhead gate: the swap-pressure and
// multi-device scenarios run as an in-process A/B — every session
// joined to one of two tenants (full attribution: counters, histograms
// and the ctx→bundle binding on every launch) versus plain tenantless
// sessions — interleaved, best wall-clock of 5 runs per side. The gate
// fails if the attributed side's calls/sec falls below minRatio of the
// plain side's, i.e. if attribution costs more than (1-minRatio) of
// dispatch throughput.
func runAttrGate(sz sizes, minRatio float64) int {
	type scen struct {
		name string
		run  func(sizes, int64) (benchfmt.Scenario, error)
	}
	scens := []scen{
		{"swap-pressure", runSwapPressure},
		{"multi-device", runMultiDevice},
	}
	const rounds = 5
	code := 0
	for _, sc := range scens {
		best := map[bool]float64{}
		// Interleave plain/attributed rounds so machine noise (turbo,
		// page cache, co-tenants) hits both sides alike.
		for r := 0; r < rounds; r++ {
			for _, attributed := range []bool{false, true} {
				gateTenants = 0
				if attributed {
					gateTenants = 2
				}
				s, err := sc.run(sz, 1)
				gateTenants = 0
				if err != nil {
					fatalf("attr-gate %s (attributed=%v): %v", sc.name, attributed, err)
				}
				if s.CallsPerSec > best[attributed] {
					best[attributed] = s.CallsPerSec
				}
			}
		}
		ratio := best[true] / best[false]
		fmt.Fprintf(os.Stderr,
			"gvrt-bench: attr-gate %s: attributed %.0f vs plain %.0f calls/sec (ratio %.4f, floor %.4f)\n",
			sc.name, best[true], best[false], ratio, minRatio)
		if ratio < minRatio {
			fmt.Fprintf(os.Stderr,
				"gvrt-bench: attr-gate FAIL: %s attribution costs %.2f%% of throughput (budget %.2f%%)\n",
				sc.name, (1-ratio)*100, (1-minRatio)*100)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintf(os.Stderr, "gvrt-bench: attr-gate passed: per-tenant attribution within budget on both scenarios\n")
	}
	return code
}

// node bundles one freshly built simulated node.
type node struct {
	clock *sim.Clock
	crt   *cudart.Runtime
	rt    *core.Runtime
}

func newNode(scale float64, cfg core.Config, specs ...gpu.Spec) (*node, error) {
	clock := sim.NewClock(scale)
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

func (n *node) client() *frontend.Client {
	c, s := transport.Pipe()
	go n.rt.Serve(s)
	return frontend.Connect(c)
}

// benchBinary is the fat binary every synthetic session registers: one
// fast kernel so launch cost is dominated by the dispatch path.
func benchBinary() api.FatBinary {
	return api.FatBinary{
		ID: "gvrt-bench",
		Kernels: []api.KernelMeta{
			{Name: "spin", BaseTime: 50 * time.Microsecond},
		},
	}
}

// quantilesUS converts a model-time histogram snapshot into wall-clock
// microsecond p50/p99.
func quantilesUS(h trace.HistSnapshot, scale float64) (p50, p99 float64) {
	toUS := scale / 1e3 // model ns -> wall us
	return float64(h.Quantile(0.50)) * toUS, float64(h.Quantile(0.99)) * toUS
}

// fill populates the latency fields of a scenario from a runtime's
// timing histograms.
func fill(s *benchfmt.Scenario, t *trace.Timings, scale float64) {
	s.LaunchP50US, s.LaunchP99US = quantilesUS(t.Launch.Snapshot(), scale)
	s.QueueWaitP50US, s.QueueWaitP99US = quantilesUS(t.QueueWait.Snapshot(), scale)
	s.BindWaitP50US, s.BindWaitP99US = quantilesUS(t.BindWait.Snapshot(), scale)
}

// gateTenants, when positive, makes every bench session join tenant
// "tenant<i mod gateTenants>" — the attributed side of the -attr-gate
// A/B comparison. Zero (the default) keeps sessions tenantless, which
// is the hot path every other scenario measures.
var gateTenants int

// tenantFor maps a session index to its -attr-gate tenant ("" = none).
func tenantFor(i int) string {
	if gateTenants <= 0 {
		return ""
	}
	return fmt.Sprintf("tenant%d", i%gateTenants)
}

// session runs one synthetic client lifecycle: register, allocate two
// buffers, iters rounds of h2d + launch, then free and exit. A
// non-empty tenant joins the session to it first (attribution on).
func session(c *frontend.Client, iters int, bufBytes uint64, tenant string) error {
	defer c.Close()
	if err := c.RegisterFatBinary(benchBinary()); err != nil {
		return err
	}
	if tenant != "" {
		if err := c.SetTenant(tenant); err != nil {
			return err
		}
	}
	a, err := c.Malloc(bufBytes)
	if err != nil {
		return err
	}
	b, err := c.Malloc(bufBytes)
	if err != nil {
		return err
	}
	launch := api.LaunchCall{
		Kernel:  "spin",
		Grid:    api.Dim3{X: 32},
		Block:   api.Dim3{X: 128},
		PtrArgs: []api.DevPtr{a, b},
	}
	for i := 0; i < iters; i++ {
		if err := c.MemcpyHDSynthetic(a, bufBytes); err != nil {
			return err
		}
		if err := c.Launch(launch); err != nil {
			return err
		}
	}
	if err := c.Free(a); err != nil {
		return err
	}
	return c.Free(b)
}

// runMultiDevice is the headline scenario: sz.sessions concurrent
// sessions over the paper's three-GPU node (2x Tesla C2050 + C1060),
// small buffers, modeled time scaled away. Calls/sec here is the
// framework's dispatch throughput.
func runMultiDevice(sz sizes, _ int64) (benchfmt.Scenario, error) {
	n, err := newNode(benchScale, core.Config{}, gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060)
	if err != nil {
		return benchfmt.Scenario{}, err
	}
	defer n.rt.Close()

	errs := make([]error, sz.sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sz.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = session(n.client(), sz.iters, 256<<10, tenantFor(i))
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return benchfmt.Scenario{}, err
		}
	}
	return scenarioFrom("multi-device", sz.sessions, n, wall, benchScale), nil
}

// runMultiNode drives sessions at a head node that offloads its excess
// to a peer over TCP (the paper's §4.7 path), so the measurement covers
// the wire codec and the proxy pump as well.
func runMultiNode(sz sizes, _ int64) (benchfmt.Scenario, error) {
	peer, err := newNode(benchScale, core.Config{}, gpu.TeslaC2050)
	if err != nil {
		return benchfmt.Scenario{}, err
	}
	defer peer.rt.Close()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return benchfmt.Scenario{}, err
	}
	defer l.Close()
	go peer.rt.ServeListener(l)

	head, err := newNode(benchScale, core.Config{
		VGPUsPerDevice:   2,
		OffloadThreshold: 2,
		PeerDial:         func() (transport.Conn, error) { return transport.Dial(l.Addr()) },
	}, gpu.TeslaC2050)
	if err != nil {
		return benchfmt.Scenario{}, err
	}
	defer head.rt.Close()

	errs := make([]error, sz.nodeSess)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sz.nodeSess; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, s := transport.Pipe()
			go head.rt.HandleConn(s)
			errs[i] = session(frontend.Connect(c), sz.iters, 256<<10, tenantFor(i))
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return benchfmt.Scenario{}, err
		}
	}

	hm, pm := head.rt.Metrics(), peer.rt.Metrics()
	s := scenarioFrom("multi-node", sz.nodeSess, head, wall, benchScale)
	s.Calls = hm.CallsServed + pm.CallsServed
	s.CallsPerSec = float64(s.Calls) / rateSeconds(wall)
	s.Offloaded = hm.Offloaded
	s.SwapOps = hm.Memory.SwapOps + pm.Memory.SwapOps
	s.SwapBytesPerSec = float64(hm.Memory.SwapBytes+pm.Memory.SwapBytes) / rateSeconds(wall)
	return s, nil
}

// swapSession is the swap-pressure client body: two working sets that
// each nearly fill the device, launched alternately. Every launch of
// one set forces the runtime to evict (intra-application swap) the
// whole other set, so swap traffic is deterministic — it does not
// depend on catching a co-tenant in a CPU phase.
func swapSession(c *frontend.Client, iters, setBufs int, bufBytes uint64, tenant string) error {
	defer c.Close()
	if err := c.RegisterFatBinary(benchBinary()); err != nil {
		return err
	}
	if tenant != "" {
		if err := c.SetTenant(tenant); err != nil {
			return err
		}
	}
	var sets [2][]api.DevPtr
	for s := range sets {
		for j := 0; j < setBufs; j++ {
			p, err := c.Malloc(bufBytes)
			if err != nil {
				return err
			}
			sets[s] = append(sets[s], p)
		}
	}
	for i := 0; i < iters; i++ {
		for s := range sets {
			launch := api.LaunchCall{
				Kernel:  "spin",
				Grid:    api.Dim3{X: 32},
				Block:   api.Dim3{X: 128},
				PtrArgs: sets[s],
			}
			if err := c.Launch(launch); err != nil {
				return err
			}
		}
	}
	for s := range sets {
		for _, p := range sets[s] {
			if err := c.Free(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSwapPressure oversubscribes one device's memory so every launch
// forces intra-application swaps: the swap bytes/sec series of the
// trajectory. One vGPU per device keeps sessions serialized on the
// bind queue, so the swap count per run is a deterministic function of
// the sizes, not of tenant interleaving.
func runSwapPressure(sz sizes, _ int64) (benchfmt.Scenario, error) {
	n, err := newNode(benchScale, core.Config{VGPUsPerDevice: 1}, gpu.TeslaC2050)
	if err != nil {
		return benchfmt.Scenario{}, err
	}
	defer n.rt.Close()

	// 23 x 128 MiB = 2944 MiB per set: one set fits the C2050's 3 GiB
	// minus the context reservation, two sets do not — so alternating
	// launches displace each other's whole working set every round.
	const (
		setBufs = 23
		buf     = 128 << 20
	)
	errs := make([]error, sz.swapSess)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sz.swapSess; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = swapSession(n.client(), sz.swapIter, setBufs, buf, tenantFor(i))
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return benchfmt.Scenario{}, err
		}
	}
	return scenarioFrom("swap-pressure", sz.swapSess, n, wall, benchScale), nil
}

// runPaperMix replays the Figure 5 style workload — a seeded draw from
// the paper's short-running benchmark pool run as one concurrent batch
// (the internal/exp scenario machinery) — at a scale where modeled
// kernel time still matters, tying the trajectory back to the paper's
// own evaluation unit.
func runPaperMix(sz sizes, seed int64) (benchfmt.Scenario, error) {
	const scale = 1e-6
	n, err := newNode(scale, core.Config{}, gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060)
	if err != nil {
		return benchfmt.Scenario{}, err
	}
	defer n.rt.Close()

	apps := workload.RandomShortBatch(sim.NewRNG(seed), sz.mixJobs)
	start := time.Now()
	res := workload.RunBatch(n.clock, apps, func(int) (workload.CUDA, error) {
		return n.client(), nil
	})
	wall := time.Since(start)
	if f := res.Failed(); f > 0 {
		return benchfmt.Scenario{}, fmt.Errorf("%d/%d jobs failed: %v", f, len(apps), firstErr(res))
	}
	return scenarioFrom("paper-mix", sz.mixJobs, n, wall, scale), nil
}

func firstErr(res workload.BatchResult) error {
	for _, err := range res.Errors {
		if err != nil {
			return err
		}
	}
	return nil
}

// dumpHist mirrors the -hist flag: after each scenario, print the
// swap-path histogram quantiles (model-time ns converted to wall us at
// the scenario's clock scale) so before/after comparisons of the swap
// machinery itself — not just headline throughput — are one flag away.
var dumpHist bool

// histDump prints p50/p99 for the swap-path histograms of a scenario.
func histDump(name string, t *trace.Timings, scale float64) {
	if !dumpHist {
		return
	}
	for _, h := range []struct {
		key  string
		hist *trace.Histogram
	}{
		{"swap_dur", &t.SwapDur},
		{"d2h", &t.D2H},
		{"h2d", &t.H2D},
		{"prefetch", &t.Prefetch},
	} {
		snap := h.hist.Snapshot()
		if snap.Count == 0 {
			continue
		}
		p50, p99 := quantilesUS(snap, scale)
		fmt.Fprintf(os.Stderr, "gvrt-bench: %s: hist %s: n=%d p50=%.2fus p99=%.2fus\n",
			name, h.key, snap.Count, p50, p99)
	}
	if snap := t.DedupSaved.Snapshot(); snap.Count > 0 {
		fmt.Fprintf(os.Stderr, "gvrt-bench: %s: hist dedup_saved: n=%d p50=%dB p99=%dB\n",
			name, snap.Count, snap.Quantile(0.50), snap.Quantile(0.99))
	}
}

// rateSeconds clamps a measured wall duration for per-second rate
// derivation: sub-millisecond walls (quick runs on fast machines) turn
// honest byte counts into absurd rates, so rates are floored at a 1 ms
// window. The raw wall still lands in WallSeconds unclamped.
func rateSeconds(wall time.Duration) float64 {
	if wall < time.Millisecond {
		wall = time.Millisecond
	}
	return wall.Seconds()
}

// scenarioFrom assembles the common measurement fields from a node's
// runtime counters, device stats and timing histograms. SwapBytes
// counts real swap-out spills only — checkpoint flushes are accounted
// separately by the runtime (CheckpointBytes) and excluded here.
func scenarioFrom(name string, sessions int, n *node, wall time.Duration, scale float64) benchfmt.Scenario {
	m := n.rt.Metrics()
	s := benchfmt.Scenario{
		Name:        name,
		Sessions:    sessions,
		Calls:       m.CallsServed,
		WallSeconds: wall.Seconds(),
		CallsPerSec: float64(m.CallsServed) / rateSeconds(wall),
		SwapOps:     m.Memory.SwapOps,
	}
	s.SwapBytesPerSec = float64(m.Memory.SwapBytes) / rateSeconds(wall)
	s.PrefetchHits = m.PrefetchHits
	s.DedupSavedBytes = m.Memory.DedupSavedBytes
	for _, d := range n.crt.Devices() {
		st := d.Stats()
		s.H2DOps += st.H2DOps
		s.H2DBytes += st.H2DBytes
	}
	fill(&s, n.rt.Timings(), scale)
	histDump(name, n.rt.Timings(), scale)
	return s
}
