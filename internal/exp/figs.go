package exp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/workload"
)

// Table2 reproduces Table 2: the benchmark programs with their
// kernel-call counts, modeled footprints, and the measured standalone
// execution time of each on a dedicated Tesla C2050 under gvrt —
// verifying the §5.2 calibration (short: 3–5 s, long: 30–90 s).
func Table2(o Options) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Benchmark programs (standalone on a Tesla C2050, CPU fraction 1 for MM-*)",
		Paper:  "short-running programs take 3-5 s each, long-running ones 30-90 s",
		Header: []string{"program", "kernel calls", "memory (MB)", "class", "standalone (s)"},
	}
	for _, app := range workload.AllApps() {
		res, _, err := runGvrtBatch(o, core.Config{}, []gpu.Spec{gpu.TeslaC2050}, []workload.App{app})
		if err != nil {
			return nil, err
		}
		if res.Failed() > 0 {
			return nil, fmt.Errorf("table2: %s failed: %v", app.Name, res.Errors)
		}
		class := "short"
		if app.LongRunning {
			class = "long"
		}
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmt.Sprintf("%d", app.KernelCalls),
			fmt.Sprintf("%d", app.MemBytes>>20),
			class,
			secs(res.Total),
		})
		o.logf("table2: %s done (%s s)", app.Name, secs(res.Total))
	}
	return t, nil
}

// CtxLimit reproduces the §1/§5.3.1 observation: the bare CUDA runtime
// cannot handle more than eight concurrent jobs stably, while gvrt
// funnels arbitrarily many through its few persistent contexts.
func CtxLimit(o Options) (*Table, error) {
	t := &Table{
		ID:     "ctxlimit",
		Title:  "Concurrency limit: bare CUDA runtime vs gvrt (1x Tesla C2050)",
		Paper:  "the CUDA runtime supports at most 8 concurrent jobs; gvrt handles 48+",
		Header: []string{"configuration", "jobs", "completed", "failed"},
	}
	mk := func(n int) []workload.App {
		apps := make([]workload.App, n)
		for i := range apps {
			apps[i] = workload.MT()
		}
		return apps
	}
	// Bare runtime, 12 concurrent jobs: the ninth and later fail. Each
	// job waits at the door until all twelve have asked for a context, so
	// the count does not depend on how the goroutines were scheduled.
	clock := sim.NewClock(o.scale())
	crt := cudart.New(clock, gpu.NewDevice(0, gpu.TeslaC2050, clock))
	var asked sync.WaitGroup
	asked.Add(12)
	bare := workload.RunBatch(clock, mk(12), func(int) (workload.CUDA, error) {
		c, err := workload.NewBareClient(crt, 0)
		asked.Done()
		asked.Wait()
		return c, err
	})
	t.Rows = append(t.Rows, []string{"bare CUDA runtime", "12",
		fmt.Sprintf("%d", 12-bare.Failed()), fmt.Sprintf("%d", bare.Failed())})

	// gvrt, 48 concurrent jobs on the same single GPU.
	res, _, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 8}, []gpu.Spec{gpu.TeslaC2050}, mk(48))
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"gvrt (8 vGPUs)", "48",
		fmt.Sprintf("%d", 48-res.Failed()), fmt.Sprintf("%d", res.Failed())})
	if bare.Failed() == 0 {
		t.Notes = append(t.Notes, "WARNING: bare runtime showed no failures; limit model broken")
	}
	return t, nil
}

// Fig5 reproduces Figure 5: total execution time of 1/2/4/8 randomly
// drawn short-running jobs on a node with one GPU, comparing the bare
// CUDA runtime (lower bound) with gvrt at 1/2/4/8 vGPUs. Each cell
// averages Runs draws, with identical draws across configurations
// (§5.3.1's apple-to-apple methodology).
func Fig5(o Options) (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "Overhead: short jobs on 1 GPU (total execution time, s)",
		Paper: "gvrt approaches the bare runtime as vGPUs increase; worst-case overhead ~10%",
		Header: []string{"# jobs", "CUDA runtime", "1 vGPU", "2 vGPUs", "4 vGPUs", "8 vGPUs",
			"overhead @8vGPU"},
	}
	specs := []gpu.Spec{gpu.TeslaC2050}
	vgpuConfigs := []int{1, 2, 4, 8}
	for _, n := range []int{1, 2, 4, 8} {
		totals := make([]time.Duration, 1+len(vgpuConfigs))
		for r := 0; r < o.runs(); r++ {
			seed := o.Seed + int64(r)
			bare, err := runBareBatch(o, specs, workload.RandomShortBatch(sim.NewRNG(seed), n))
			if err != nil {
				return nil, err
			}
			if bare.Failed() > 0 {
				return nil, fmt.Errorf("fig5: bare run failed: %v", bare.Errors)
			}
			totals[0] += bare.Total
			for k, v := range vgpuConfigs {
				res, _, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: v}, specs,
					workload.RandomShortBatch(sim.NewRNG(seed), n))
				if err != nil {
					return nil, err
				}
				if res.Failed() > 0 {
					return nil, fmt.Errorf("fig5: %d vGPUs failed: %v", v, res.Errors)
				}
				totals[k+1] += res.Total
			}
			o.logf("fig5: n=%d run %d done", n, r)
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, tot := range totals {
			row = append(row, secs(tot/time.Duration(o.runs())))
		}
		over := math.Round(100 * (float64(totals[len(totals)-1])/float64(totals[0]) - 1))
		if over == 0 {
			over = 0 // a rounding-level negative prints 0%, not -0%
		}
		row = append(row, fmt.Sprintf("%.0f%%", over))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6 reproduces Figure 6: 8–48 short-running jobs on the three-GPU
// node. The bare CUDA runtime cannot handle more than 8 concurrent
// jobs, so it is reported only for the first point.
func Fig6(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "GPU sharing: short jobs on 3 GPUs (total execution time, s)",
		Paper:  "sharing gains grow with job count; 4 vGPUs/device is the sweet spot; bare runtime capped at 8 jobs",
		Header: []string{"# jobs", "CUDA runtime", "1 vGPU", "2 vGPUs", "4 vGPUs"},
	}
	specs := threeGPUNode()
	vgpuConfigs := []int{1, 2, 4}
	for _, n := range []int{8, 16, 32, 48} {
		totals := make([]time.Duration, 1+len(vgpuConfigs))
		bareOK := n <= 8
		for r := 0; r < o.runs(); r++ {
			seed := o.Seed + int64(r)
			if bareOK {
				bare, err := runBareBatch(o, specs, workload.RandomShortBatch(sim.NewRNG(seed), n))
				if err != nil {
					return nil, err
				}
				totals[0] += bare.Total
			}
			for k, v := range vgpuConfigs {
				res, _, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: v}, specs,
					workload.RandomShortBatch(sim.NewRNG(seed), n))
				if err != nil {
					return nil, err
				}
				if res.Failed() > 0 {
					return nil, fmt.Errorf("fig6: %d vGPUs, %d jobs failed: %v", v, n, res.Errors)
				}
				totals[k+1] += res.Total
			}
			o.logf("fig6: n=%d run %d done", n, r)
		}
		row := []string{fmt.Sprintf("%d", n)}
		if bareOK {
			row = append(row, secs(totals[0]/time.Duration(o.runs())))
		} else {
			row = append(row, "n/a (>8)")
		}
		for k := range vgpuConfigs {
			row = append(row, secs(totals[k+1]/time.Duration(o.runs())))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: 36 MM-L jobs with conflicting memory
// requirements on the three-GPU node, varying the fraction of CPU work;
// serialized execution (1 vGPU) vs GPU sharing (4 vGPUs), with the
// number of swap operations annotated.
func Fig7(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Swapping under conflicting memory needs: 36 MM-L jobs on 3 GPUs",
		Paper:  "serialized time grows linearly with CPU fraction; sharing stays flat, at the cost of swaps",
		Header: []string{"CPU fraction", "serialized 1 vGPU (s)", "sharing 4 vGPUs (s)", "swaps @1", "swaps @4"},
	}
	specs := threeGPUNode()
	for _, frac := range []float64{0, 0.5, 1, 1.5, 2} {
		apps := func() []workload.App {
			batch := make([]workload.App, 36)
			for i := range batch {
				batch[i] = workload.MML(frac)
			}
			return batch
		}
		ser, mSer, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 1}, specs, apps())
		if err != nil {
			return nil, err
		}
		if ser.Failed() > 0 {
			return nil, fmt.Errorf("fig7 serialized frac %.1f: %v", frac, firstErr(ser))
		}
		shr, mShr, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 4}, specs, apps())
		if err != nil {
			return nil, err
		}
		if shr.Failed() > 0 {
			return nil, fmt.Errorf("fig7 sharing frac %.1f: %v", frac, firstErr(shr))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", frac),
			secs(ser.Total), secs(shr.Total),
			fmt.Sprintf("%d", mSer.InterAppSwaps+mSer.IntraAppSwaps),
			fmt.Sprintf("%d", mShr.InterAppSwaps+mShr.IntraAppSwaps),
		})
		o.logf("fig7: frac %.1f done (ser %s, shr %s)", frac, secs(ser.Total), secs(shr.Total))
	}
	return t, nil
}

// Fig8 reproduces Figure 8: 36 long-running jobs mixing BS-L
// (GPU-intensive, smaller footprint) and MM-L (CPU phases, large
// footprint) at varying ratios; serialized vs shared execution with
// swap counts.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Workload mix: 36 jobs of BS-L/MM-L on 3 GPUs",
		Paper:  "sharing gains grow as MM-L dominates; a mostly-BS-L mix can lose to serialization (swap overhead)",
		Header: []string{"BS-L/MM-L", "serialized 1 vGPU (s)", "sharing 4 vGPUs (s)", "swaps @1", "swaps @4"},
	}
	specs := threeGPUNode()
	for _, pct := range []int{100, 75, 50, 25, 0} {
		ser, mSer, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 1}, specs, workload.MixedBatch(36, pct, 1))
		if err != nil {
			return nil, err
		}
		if ser.Failed() > 0 {
			return nil, fmt.Errorf("fig8 serialized %d%%: %v", pct, firstErr(ser))
		}
		shr, mShr, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 4}, specs, workload.MixedBatch(36, pct, 1))
		if err != nil {
			return nil, err
		}
		if shr.Failed() > 0 {
			return nil, fmt.Errorf("fig8 sharing %d%%: %v", pct, firstErr(shr))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d/%d", pct, 100-pct),
			secs(ser.Total), secs(shr.Total),
			fmt.Sprintf("%d", mSer.InterAppSwaps+mSer.IntraAppSwaps),
			fmt.Sprintf("%d", mShr.InterAppSwaps+mShr.IntraAppSwaps),
		})
		o.logf("fig8: mix %d/%d done", pct, 100-pct)
	}
	return t, nil
}

// Fig9 reproduces Figure 9: MM-S jobs on the unbalanced node (two
// C2050s and a Quadro 2000) with and without load balancing through
// dynamic binding, for CPU fractions 0 and 1; migration counts
// annotated.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Load balancing through dynamic binding: MM-S jobs on 2x C2050 + Quadro 2000",
		Paper:  "migration helps most for small batches; with many jobs, balancing happens by scheduling pending jobs instead",
		Header: []string{"CPU fraction", "# jobs", "no LB (s)", "LB (s)", "migrations"},
	}
	specs := unbalancedNode()
	for _, frac := range []float64{0, 1} {
		for _, n := range []int{12, 24, 36} {
			apps := func() []workload.App {
				batch := make([]workload.App, n)
				for i := range batch {
					batch[i] = workload.MMS(frac)
				}
				return batch
			}
			off, _, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 4}, specs, apps())
			if err != nil {
				return nil, err
			}
			if off.Failed() > 0 {
				return nil, fmt.Errorf("fig9 noLB frac %.0f n %d: %v", frac, n, firstErr(off))
			}
			on, mOn, err := runGvrtBatch(o, core.Config{VGPUsPerDevice: 4, EnableMigration: true}, specs, apps())
			if err != nil {
				return nil, err
			}
			if on.Failed() > 0 {
				return nil, fmt.Errorf("fig9 LB frac %.0f n %d: %v", frac, n, firstErr(on))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", frac), fmt.Sprintf("%d", n),
				secs(off.Total), secs(on.Total),
				fmt.Sprintf("%d", mOn.Migrations),
			})
			o.logf("fig9: frac %.0f n %d done", frac, n)
		}
	}
	return t, nil
}

// firstErr extracts the first job error for reporting.
func firstErr(r workload.BatchResult) error {
	for _, err := range r.Errors {
		if err != nil {
			return err
		}
	}
	return nil
}
