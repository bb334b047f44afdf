// Command gvrt-chaos runs a data-checked job storm against an
// in-process gvrt runtime under a deterministic fault plan, then prints
// the post-mortem: per-job verdicts, the fired fault schedule, the
// trace-ring tail and the runtime's metrics. Every run is replayable
// from its seed alone:
//
//	gvrt-chaos -plan storm                 # default seed
//	gvrt-chaos -plan storm -seed 1234      # replay an exact run
//	GVRT_CHAOS_SEED=1234 gvrt-chaos        # same, CI-style
//	gvrt-chaos -plan memory -jobs 64       # swap-area failure plan
//	gvrt-chaos -plan none                  # control run, no faults
//
// Exit status is 0 when every job completed or failed with a clean
// resource error and no data corruption occurred; 1 otherwise (and on a
// hang, after -timeout of wall time).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

const chaosBinID = "gvrt-chaos-bin"

func init() {
	api.RegisterKernelImpl(chaosBinID, "inc", func(mem api.KernelMemory, scalars []uint64) error {
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

// chaosBinary is the fat binary every chaos session registers.
func chaosBinary() api.FatBinary {
	return api.FatBinary{
		ID:      chaosBinID,
		Kernels: []api.KernelMeta{{Name: "inc", BaseTime: time.Millisecond}},
	}
}

// plans maps -plan names to rule sets. The storm plan mirrors the
// TestChaos storm; the memory plan starves the swap area instead.
func plans(seed int64) map[string]faultinject.Plan {
	return map[string]faultinject.Plan{
		"storm": {
			Name: "storm",
			Seed: seed,
			Rules: []faultinject.Rule{
				{Point: faultinject.PointDeviceExec, Label: "gpu0", AtNth: 8, Action: faultinject.ActFailDevice},
				{Point: faultinject.PointDeviceExec, Label: "gpu1", AtNth: 20, Action: faultinject.ActFailDevice},
				{Point: faultinject.PointDeviceDMA, Prob: 0.05, Action: faultinject.ActDelay, Delay: 2 * time.Millisecond},
				{Point: faultinject.PointDeviceMalloc, Prob: 0.02, After: 8, MaxFires: 3, Action: faultinject.ActError},
				{Point: faultinject.PointDispatch, Prob: 0.02, Action: faultinject.ActDelay, Delay: time.Millisecond},
			},
		},
		"memory": {
			Name: "memory",
			Seed: seed,
			Rules: []faultinject.Rule{
				{Point: faultinject.PointSwapWrite, Prob: 0.1, Action: faultinject.ActError},
				{Point: faultinject.PointSwapAlloc, Prob: 0.05, Action: faultinject.ActError},
				// After skips the vGPU reservation allocations made while
				// the runtime boots, so the storm hits jobs, not startup.
				{Point: faultinject.PointDeviceMalloc, Prob: 0.05, After: 8, Action: faultinject.ActError},
			},
		},
		"none": {Name: "none", Seed: seed},
	}
}

func main() {
	var (
		jobs     = flag.Int("jobs", 32, "concurrent jobs in the storm")
		kernels  = flag.Int("kernels", 6, "kernel launches per job")
		devices  = flag.Int("devices", 3, "simulated GPUs")
		vgpus    = flag.Int("vgpus", 2, "virtual GPUs per device")
		seed     = flag.Int64("seed", defaultSeed(), "fault-plan and workload seed (or set GVRT_CHAOS_SEED)")
		planName = flag.String("plan", "storm", "fault plan: storm | memory | none")
		scale    = flag.Float64("scale", 1e-7, "wall seconds per model second")
		traceN   = flag.Int("trace", 24, "trace-ring events to print in the post-mortem")
		perfetto = flag.String("perfetto", "", "write the run's spans and events as Chrome trace-event JSON here (load at ui.perfetto.dev)")
		timeout  = flag.Duration("timeout", 60*time.Second, "wall-time watchdog before declaring a hang")

		torture         = flag.Bool("torture", false, "crash-torture mode: SIGKILL a journal-backed daemon at armed crash points and verify every committed session recovers")
		tortureRounds   = flag.Int("torture-rounds", tortureMode.rounds, "crash-torture rounds (scenarios cycle: pre-fsync, post-fsync, mid-compaction, torn tail)")
		tortureSessions = flag.Int("torture-sessions", 3, "concurrent sessions per torture round")
		tortureLaunches = flag.Int("torture-launches", 12, "kernel launches per torture session")

		failoverMode   = flag.Bool("failover", false, "failover-torture mode: SIGKILL a source/target node pair at armed failover crash points and verify every acked kernel is observable after takeover, with deposed writes fenced")
		failoverRounds = flag.Int("failover-rounds", failoverTorture.rounds, "failover-torture rounds (scenarios cycle: source kill mid-launch, source kill mid-transfer, target kill mid-import); sessions/launches reuse the -torture-* flags")

		ctrlMode   = flag.Bool("ctrlplane", false, "control-plane torture mode: SIGKILL a store-backed daemon mid-mutation at armed crash points and verify every REST mutation is fully applied or fully rolled back after restart")
		ctrlRounds = flag.Int("ctrlplane-rounds", ctrlTorture.rounds, "control-plane torture rounds (scenarios cycle: mid-op-step, pre-fsync, post-fsync, mid-compaction, stuck-ops + REST cleanup)")

		flightRead = flag.String("flight-read", "", "post-mortem mode: read a flight-recorder dump (flight-<node>.json) and print the black-box ring, histogram deltas and final stats, then exit")
	)
	flag.Parse()

	// Re-exec'd as a torture daemon child?
	if spec := os.Getenv(envChild); spec != "" {
		runChild(spec)
		return
	}
	if *flightRead != "" {
		os.Exit(readFlight(*flightRead))
	}
	run := func(m mode, rounds int) {
		os.Exit(m.run(*seed, rounds, *tortureSessions, *tortureLaunches, *timeout))
	}
	switch {
	case *torture:
		run(tortureMode, *tortureRounds)
	case *failoverMode:
		run(failoverTorture, *failoverRounds)
	case *ctrlMode:
		run(ctrlTorture, *ctrlRounds)
	}

	plan, ok := plans(*seed)[*planName]
	if !ok {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: unknown plan %q (storm | memory | none)\n", *planName)
		os.Exit(2)
	}
	plane := faultinject.New(plan)
	rec := trace.NewRecorder(4096)

	clock := sim.NewClock(*scale)
	// Record each fired fault as a zero-length span, so a Perfetto
	// export of a replayed seed lines the injected faults up against
	// the recovery spans they triggered.
	plane.SetTrace(rec, clock.Now)
	spec := gpu.Spec{Name: "chaos-gpu", SMs: 4, CoresPerSM: 8, ClockMHz: 1000,
		MemBytes: 1 << 20, Speed: 1, BandwidthBps: 1 << 40}
	devs := make([]*gpu.Device, *devices)
	for i := range devs {
		devs[i] = gpu.NewDevice(i, spec, clock)
	}
	crt := cudart.New(clock, devs...)
	// Tiny 1 MiB devices keep the storm under memory pressure; shrink the
	// per-context reservation accordingly, before the runtime carves vGPUs.
	crt.SetLimits(1024, 0, 0)
	rt, err := core.New(crt, core.Config{
		VGPUsPerDevice: *vgpus,
		CallOverhead:   -1,
		BindBackoff:    time.Millisecond,
		AutoCheckpoint: 5 * time.Millisecond,
		Trace:          rec,
		Faults:         plane,
	})
	if err != nil {
		// A plan can legitimately kill the runtime at boot (e.g. a
		// device-malloc denial hitting a vGPU reservation); keep the run
		// reproducible by reporting the plan and seed even here.
		fmt.Fprintf(os.Stderr, "gvrt-chaos: runtime boot failed under plan %q seed %d: %v\n%s",
			plan.Name, *seed, err, plane)
		os.Exit(1)
	}
	defer rt.Close()

	var completed, failedClean, failedDirty atomic.Int64
	rng := sim.NewRNG(*seed)
	var wg sync.WaitGroup
	for j := 0; j < *jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if err := runJob(rt, rng.Fork(fmt.Sprintf("job%d", j)), j, *kernels); err != nil {
				if cleanResourceError(err) {
					failedClean.Add(1)
				} else {
					failedDirty.Add(1)
					fmt.Fprintf(os.Stderr, "job %d: UNCLEAN: %v\n", j, err)
				}
				return
			}
			completed.Add(1)
		}(j)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	hung := false
	select {
	case <-done:
	case <-time.After(*timeout):
		hung = true
	}

	fmt.Printf("=== gvrt-chaos: plan %q seed %d ===\n", plan.Name, *seed)
	fmt.Printf("jobs: %d completed, %d failed clean, %d failed UNCLEAN, hung=%v\n",
		completed.Load(), failedClean.Load(), failedDirty.Load(), hung)
	fmt.Printf("\n--- fired fault schedule ---\n%s", plane)
	replayErr := plane.Replay()
	if replayErr != nil {
		fmt.Println(replayErr)
	} else {
		fmt.Printf("schedule replay: verified pure against seed %d\n", *seed)
	}
	m := rt.Metrics()
	fmt.Printf("\n--- runtime metrics ---\n")
	fmt.Printf("calls=%d binds=%d swaps=%d/%d migrations=%d failures=%d recoveries=%d replays=%d\n",
		m.CallsServed, m.Binds, m.InterAppSwaps, m.IntraAppSwaps,
		m.Migrations, m.DeviceFailures, m.Recoveries, m.Replays)
	fmt.Printf("readmissions=%d sheds=%d\n", m.Readmissions, m.Sheds)
	events := rec.Snapshot()
	if n := len(events); n > *traceN {
		events = events[n-*traceN:]
	}
	fmt.Printf("\n--- trace ring (last %d events) ---\n", len(events))
	for _, e := range events {
		fmt.Printf("  %s\n", e)
	}
	recovered := true
	if !hung {
		recovered = recoveryVerdict(rt, devs, rec)
	}

	exported := true
	if *perfetto != "" {
		if err := writePerfetto(*perfetto, plan.Name, *seed, rec); err != nil {
			fmt.Fprintf(os.Stderr, "gvrt-chaos: perfetto export: %v\n", err)
			exported = false
		} else {
			fmt.Printf("\nperfetto trace written to %s (%d spans, %d events) — load at ui.perfetto.dev\n",
				*perfetto, len(rec.Spans()), len(rec.Snapshot()))
		}
	}

	fmt.Printf("\nreproduce this exact run: gvrt-chaos -plan %s -seed %d (or GVRT_CHAOS_SEED=%d)\n",
		plan.Name, *seed, *seed)

	if hung || failedDirty.Load() > 0 || !recovered || replayErr != nil || !exported {
		os.Exit(1)
	}
}

// writePerfetto renders the trace ring — phase spans, fault spans and
// instant events — as Chrome trace-event JSON.
func writePerfetto(path, planName string, seed int64, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := trace.WriteChromeTrace(f, trace.ChromeProcess{
		Name:   fmt.Sprintf("gvrt-chaos plan %s seed %d", planName, seed),
		Spans:  rec.Spans(),
		Events: rec.Snapshot(),
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// recoveryVerdict is the self-healing half of the post-mortem: it
// clears the sticky device faults the plan injected (the simulated
// operator swap / driver reset), waits for the runtime's health monitor
// to re-admit every restored device, and reports the per-device
// time-to-recovery in model time measured from the failure event to the
// matching re-admission event in the trace ring. The run fails if a
// healthy-again device is never handed back to the waiting list.
func recoveryVerdict(rt *core.Runtime, devs []*gpu.Device, rec *trace.Recorder) bool {
	fmt.Printf("\n--- recovery verdict ---\n")
	var failed []*gpu.Device
	for _, d := range devs {
		if d.Failed() {
			failed = append(failed, d)
		}
	}
	if len(failed) == 0 {
		fmt.Printf("no device left failed; nothing to recover\n")
		return true
	}
	base := rt.Metrics().Readmissions
	for _, d := range failed {
		d.Restore()
	}
	// The health monitor probes on its own model-time cadence; give it a
	// generous wall-time allowance before declaring recovery broken.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Metrics().Readmissions-base < int64(len(failed)) {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ok := true
	events := rec.Snapshot()
	for _, d := range failed {
		id := d.ID()
		failT := time.Duration(-1)
		recT := time.Duration(-1)
		for _, e := range events {
			if e.Device != id {
				continue
			}
			switch {
			case e.Kind == trace.KindFailure && failT < 0:
				failT = e.Time
			case e.Kind == trace.KindRecovery && e.Detail == "device re-admitted":
				recT = e.Time
			}
		}
		switch {
		case recT < 0:
			fmt.Printf("device %d: NEVER RE-ADMITTED after restore\n", id)
			ok = false
		case failT >= 0:
			fmt.Printf("device %d: re-admitted, time-to-recovery %.3fs model time\n",
				id, (recT - failT).Seconds())
		default:
			fmt.Printf("device %d: re-admitted at %.3fs (failure event evicted from ring)\n",
				id, recT.Seconds())
		}
	}
	if ok {
		fmt.Printf("all %d failed devices re-admitted\n", len(failed))
	}
	return ok
}

// defaultSeed reads GVRT_CHAOS_SEED, falling back to 1.
func defaultSeed() int64 {
	if s := os.Getenv("GVRT_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// runJob pushes 4 data-checked bytes plus a randomized pressure
// allocation through kernels increments, verifying the result.
func runJob(rt *core.Runtime, rng *sim.RNG, j, kernels int) error {
	conn, sc := transport.Pipe()
	go rt.HandleConn(sc)
	c := frontend.Connect(conn)
	defer c.Close()
	if err := c.RegisterFatBinary(chaosBinary()); err != nil {
		return err
	}
	p, err := c.Malloc(uint64(32+rng.Intn(64)) << 10)
	if err != nil {
		return err
	}
	seed := byte(j)
	if err := c.MemcpyHD(p, []byte{seed, seed, seed, seed}); err != nil {
		return err
	}
	for k := 0; k < kernels; k++ {
		if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{4}}); err != nil {
			return err
		}
	}
	out, err := c.MemcpyDH(p, 4)
	if err != nil {
		return err
	}
	want := seed + byte(kernels)
	for i := 0; i < 4; i++ {
		if out[i] != want {
			return fmt.Errorf("data corruption: byte %d = %d, want %d", i, out[i], want)
		}
	}
	return nil
}

// cleanResourceError reports whether err is an acceptable way for a job
// to die under chaos: a resource exhausted or torn down, never an
// internal inconsistency.
func cleanResourceError(err error) bool {
	switch api.Code(err) {
	case api.ErrMemoryAllocation, api.ErrNoDevice, api.ErrDeviceUnavailable,
		api.ErrSwapAllocation, api.ErrConnectionClosed:
		return true
	}
	return false
}
