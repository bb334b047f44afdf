package workload

import (
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/cudart"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
)

func testRuntime(nDevices int) *cudart.Runtime {
	clock := sim.NewClock(1e-7)
	devs := make([]*gpu.Device, nDevices)
	for i := range devs {
		devs[i] = gpu.NewDevice(i, gpu.TeslaC2050, clock)
	}
	return cudart.New(clock, devs...)
}

// TestTable2KernelCounts verifies every program's trace reproduces the
// kernel-call count from Table 2 of the paper.
func TestTable2KernelCounts(t *testing.T) {
	want := map[string]int{
		"BP": 40, "BFS": 24, "HS": 1, "NW": 256, "SP": 1,
		"MT": 816, "PR": 801, "SC": 3300, "BS-S": 256, "VA": 1,
		"MM-S": 200, "MM-L": 10, "BS-L": 256,
	}
	for _, app := range AllApps() {
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
		if got := app.KernelCalls; got != want[app.Name] {
			t.Errorf("%s: KernelCalls = %d, want %d (Table 2)", app.Name, got, want[app.Name])
		}
	}
}

// TestShortAppDurations checks the §5.2 calibration: short programs
// take 3–5 model seconds standalone on a Tesla C2050 (kernels + CPU
// phases + transfers).
func TestShortAppDurations(t *testing.T) {
	for _, mk := range ShortApps() {
		app := mk()
		if app.LongRunning {
			t.Errorf("%s marked long-running", app.Name)
		}
		xfer := transferTime(app)
		total := app.GPUTime() + app.CPUTime() + xfer
		if total < 2500*time.Millisecond || total > 5500*time.Millisecond {
			t.Errorf("%s: standalone estimate %v outside the 3-5s band (gpu=%v cpu=%v xfer=%v)",
				app.Name, total, app.GPUTime(), app.CPUTime(), xfer)
		}
	}
}

// TestLongAppDurations checks long-running programs land in the
// 30–90 s band across the evaluated CPU fractions.
func TestLongAppDurations(t *testing.T) {
	cases := []struct {
		name string
		app  App
	}{
		{"MM-S frac 0", MMS(0)},
		{"MM-S frac 1", MMS(1)},
		{"MM-L frac 0", MML(0)},
		{"MM-L frac 1", MML(1)},
		{"MM-L frac 2", MML(2)},
		{"BS-L", BSL()},
	}
	for _, c := range cases {
		if !c.app.LongRunning {
			t.Errorf("%s not marked long-running", c.name)
		}
		total := c.app.GPUTime() + c.app.CPUTime() + transferTime(c.app)
		if total < 28*time.Second || total > 100*time.Second {
			t.Errorf("%s: standalone estimate %v outside the 30-90s band", c.name, total)
		}
	}
}

// transferTime estimates the app's total copy time at the C2050's
// modeled bandwidth.
func transferTime(app App) time.Duration {
	var bytes uint64
	for _, op := range app.Ops {
		switch o := op.(type) {
		case CopyHDOp:
			bytes += o.Size
		case CopyDHOp:
			bytes += o.Size
		}
	}
	return time.Duration(float64(bytes) / float64(gpu.TeslaC2050.BandwidthBps) * float64(time.Second))
}

// TestMMLFootprintCreatesConflicts verifies the §5.3.3 data-set sizing:
// two MM-L jobs fit a 3 GB C2050 (minus 4 vGPU reservations), three do
// not.
func TestMMLFootprintCreatesConflicts(t *testing.T) {
	avail := gpu.TeslaC2050.MemBytes - 4*uint64(cudart.DefaultContextReservation)
	f := MML(1).MemBytes
	if 2*f > avail {
		t.Errorf("two MM-L jobs (%d) do not fit available memory (%d)", 2*f, avail)
	}
	if 3*f <= avail {
		t.Errorf("three MM-L jobs (%d) fit available memory (%d); conflicts never arise", 3*f, avail)
	}
	if BSL().MemBytes >= f {
		t.Error("BS-L footprint should be below MM-L's (§5.3.3)")
	}
}

// TestShortAppsFitComfortably: §5.2 says short-running applications
// "have memory requirements well below the capacity of the GPUs".
func TestShortAppsFitComfortably(t *testing.T) {
	for _, mk := range ShortApps() {
		app := mk()
		if app.MemBytes > gpu.TeslaC2050.MemBytes/4 {
			t.Errorf("%s: footprint %d exceeds a quarter of device memory", app.Name, app.MemBytes)
		}
	}
}

func TestRandomShortBatchDeterministic(t *testing.T) {
	a := RandomShortBatch(sim.NewRNG(99), 20)
	b := RandomShortBatch(sim.NewRNG(99), 20)
	if len(a) != 20 || len(b) != 20 {
		t.Fatal("wrong batch size")
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("draw %d differs: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
	names := map[string]bool{}
	for _, app := range RandomShortBatch(sim.NewRNG(1), 100) {
		names[app.Name] = true
	}
	if len(names) < 5 {
		t.Errorf("100 draws hit only %d distinct programs", len(names))
	}
}

func TestMixedBatchComposition(t *testing.T) {
	batch := MixedBatch(36, 25, 1)
	nBSL := 0
	for _, app := range batch {
		if app.Name == "BS-L" {
			nBSL++
		}
	}
	if nBSL != 9 {
		t.Errorf("25%% of 36 = %d BS-L jobs, want 9", nBSL)
	}
	if len(batch) != 36 {
		t.Errorf("batch size = %d", len(batch))
	}
}

func TestRunAgainstBareRuntime(t *testing.T) {
	crt := testRuntime(1)
	c, err := NewBareClient(crt, 0)
	if err != nil {
		t.Fatal(err)
	}
	app := BFS()
	if err := Run(crt.Clock(), c, app); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything released.
	if got := crt.Device(0).Available(); got != crt.Device(0).Capacity() {
		t.Errorf("device leak after bare run: %d != %d", got, crt.Device(0).Capacity())
	}
	st := crt.Device(0).Stats()
	if st.Launches != int64(app.KernelCalls) {
		t.Errorf("device saw %d launches, want %d", st.Launches, app.KernelCalls)
	}
}

func TestBareClientProcessLimit(t *testing.T) {
	crt := testRuntime(1)
	var clients []*BareClient
	for i := 0; i < cudart.DefaultMaxProcesses; i++ {
		c, err := NewBareClient(crt, 0)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	if _, err := NewBareClient(crt, 0); !errors.Is(err, api.ErrRuntimeUnstable) {
		t.Errorf("9th bare client err = %v, want ErrRuntimeUnstable", err)
	}
	for _, c := range clients {
		c.Close()
	}
	if crt.AttachedProcesses() != 0 {
		t.Errorf("AttachedProcesses = %d after closing all", crt.AttachedProcesses())
	}
}

func TestRunBatchBareSerializesOnDevice(t *testing.T) {
	crt := testRuntime(1)
	apps := []App{MT(), MT()}
	res := RunBatch(crt.Clock(), apps, func(i int) (CUDA, error) {
		return NewBareClient(crt, 0)
	})
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", res.Errors)
	}
	if res.Total <= 0 || res.Avg <= 0 || res.Max() < res.Avg {
		t.Errorf("suspicious batch result: %+v", res)
	}
	if len(res.JobTimes) != 2 {
		t.Errorf("JobTimes = %v", res.JobTimes)
	}
}

func TestBatchResultStats(t *testing.T) {
	r := BatchResult{JobTimes: []time.Duration{4, 1, 3, 2}}
	if r.Max() != 4 {
		t.Errorf("Max = %v", r.Max())
	}
	if p := r.Percentile(0); p != 1 {
		t.Errorf("P0 = %v", p)
	}
	if p := r.Percentile(100); p != 4 {
		t.Errorf("P100 = %v", p)
	}
	r.Errors = []error{nil, errors.New("x"), nil, nil}
	if r.Failed() != 1 {
		t.Errorf("Failed = %d", r.Failed())
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	bin := binary("X", api.KernelMeta{Name: "k", BaseTime: time.Millisecond})
	bad := []App{
		{Name: "free-unalloc", Binary: bin, Ops: []Op{FreeOp{0}}},
		{Name: "copy-oversize", Binary: bin, Ops: []Op{MallocOp{0, 4}, CopyHDOp{0, 8}}},
		{Name: "kernel-unalloc", Binary: bin, KernelCalls: 1, Ops: []Op{KernelOp{Name: "k", Bufs: []int{3}}}},
		{Name: "kernel-unknown", Binary: bin, KernelCalls: 1, Ops: []Op{MallocOp{0, 4}, KernelOp{Name: "zz", Bufs: []int{0}}}},
		{Name: "count-mismatch", Binary: bin, KernelCalls: 5, Ops: []Op{MallocOp{0, 4}, KernelOp{Name: "k", Bufs: []int{0}}}},
	}
	for _, app := range bad {
		if err := app.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", app.Name)
		}
	}
}

// TestRandomBatchesAlwaysValidate property-checks the generator: every
// generated application passes trace validation for any seed and size.
func TestRandomBatchesAlwaysValidate(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, app := range RandomShortBatch(sim.NewRNG(seed), 8) {
			if err := app.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	for _, pct := range []int{0, 25, 50, 75, 100} {
		for _, app := range MixedBatch(10, pct, 1.5) {
			if err := app.Validate(); err != nil {
				t.Fatalf("mix %d%%: %v", pct, err)
			}
		}
	}
}

// TestFigure1AppsShape validates the motivating-example traces.
func TestFigure1AppsShape(t *testing.T) {
	a, b := Figure1Apps(1 << 20)
	for _, app := range []App{a, b} {
		if err := app.Validate(); err != nil {
			t.Fatal(err)
		}
		if app.KernelCalls != 3 {
			t.Errorf("%s kernel calls = %d, want 3", app.Name, app.KernelCalls)
		}
		if app.MemBytes != 1<<20 {
			t.Errorf("%s footprint = %d", app.Name, app.MemBytes)
		}
	}
	// app2 carries an explicit mid-stream device→host transfer; app1
	// does not (the runtime must insert any transfers it needs).
	countMidDH := func(app App) int {
		n := 0
		for i, op := range app.Ops {
			if _, ok := op.(CopyDHOp); ok && i < len(app.Ops)-3 {
				n++
			}
		}
		return n
	}
	if countMidDH(a) != 0 {
		t.Error("app1 should have no explicit mid-stream copyDH")
	}
	if countMidDH(b) != 1 {
		t.Error("app2 should have exactly one mid-stream copyDH")
	}
}

func TestPublicAPIBareBaseline(t *testing.T) {
	clock := sim.NewClock(1e-6)
	crt := cudart.New(clock, gpu.NewDevice(0, gpu.TeslaC2050, clock))
	apps := RandomShortBatch(sim.NewRNG(1), 2)
	res := RunBatch(clock, apps, func(i int) (CUDA, error) {
		return NewBareClient(crt, 0)
	})
	if res.Failed() != 0 {
		t.Fatalf("bare batch failed: %v", res.Errors)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if rec := trace.NewRecorder(32); rec == nil || rec.Len() != 0 {
		t.Error("NewTraceRecorder broken")
	}
	batch := MixedBatch(8, 50, 1)
	if len(batch) != 8 {
		t.Errorf("MixedLongBatch len = %d", len(batch))
	}
	nBSL := 0
	for _, app := range batch {
		if app.Name == "BS-L" {
			nBSL++
		}
	}
	if nBSL != 4 {
		t.Errorf("MixedLongBatch BS-L count = %d, want 4", nBSL)
	}
	for _, name := range []string{"BP", "BFS", "HS", "NW", "SP", "MT", "PR", "SC", "BS-S", "VA", "MM-S", "MM-L", "BS-L"} {
		app, ok := ByName(name, 1.5)
		if !ok || app.Name != name {
			t.Errorf("BenchmarkByName(%q) = %v, %v", name, app.Name, ok)
		}
	}
	if _, ok := ByName("nope", 1); ok {
		t.Error("BenchmarkByName accepted an unknown name")
	}
}
