// Command gvrtd is the gvrt node runtime daemon: it owns a node's
// (simulated) GPUs and serves intercepted CUDA calls over TCP — the
// per-node component of the paper's Figure 2 deployments.
//
// Usage:
//
//	gvrtd -listen :7070 -gpus c2050,c2050,c1060 -vgpus 4
//	gvrtd -listen :7071 -gpus c1060 -peer host:7070 -threshold 8
//
// The -peer / -threshold flags enable inter-node offloading (§4.7):
// once more application threads are queued than the threshold allows,
// new connections are proxied to the peer daemon.
//
// Clients connect with cmd/gvrt-run, or with internal/frontend over
// transport.Dial.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/cudart"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/obs"
	"gvrt/internal/opserver"
	"gvrt/internal/sched"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// parseGPUs maps comma-separated model names to device specs.
func parseGPUs(s string) ([]gpu.Spec, error) {
	var specs []gpu.Spec
	for _, name := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "c2050", "teslac2050":
			specs = append(specs, gpu.TeslaC2050)
		case "c1060", "teslac1060":
			specs = append(specs, gpu.TeslaC1060)
		case "quadro2000", "q2000":
			specs = append(specs, gpu.Quadro2000)
		case "":
		default:
			return nil, fmt.Errorf("unknown GPU model %q (want c2050, c1060 or quadro2000)", name)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no GPUs specified")
	}
	return specs, nil
}

func main() {
	var (
		listen    = flag.String("listen", ":7070", "TCP address to serve on")
		gpus      = flag.String("gpus", "c2050", "comma-separated GPU models (c2050, c1060, quadro2000)")
		vgpus     = flag.Int("vgpus", 4, "virtual GPUs per device (sharing degree)")
		scale     = flag.Float64("scale", 1e-3, "wall seconds per model second")
		policy    = flag.String("policy", "fcfs", "scheduling policy: fcfs, sjf or credit")
		peer      = flag.String("peer", "", "peer daemon address for inter-node offloading")
		threshold = flag.Int("threshold", 0, "queue length beyond which new threads are offloaded (0 = off)")
		migrate   = flag.Bool("migrate", false, "enable load balancing through dynamic binding")
		autoCkpt  = flag.Duration("auto-checkpoint", 0, "checkpoint after kernels at least this long (model time; 0 = off)")
		journal   = flag.String("journal", "", "crash-consistent checkpoint journal directory: committed sessions survive a restart of the node, even a SIGKILL; clients re-attach with Resume")
		storeDir  = flag.String("store", "", "control-plane store directory: tenants, quotas and device membership survive crashes; mutations resume or roll back at boot (REST surface needs -http)")
		nodeName  = flag.String("node", "", "node name registered in the control-plane store (default the listen address)")
		httpAddr  = flag.String("http", "", "HTTP operator plane address (/metrics, /statusz, /tracez, /trace.json, /debug/pprof); empty = off")
		traceCap  = flag.Int("trace-buffer", 4096, "events/spans retained for the operator plane's trace views")
		flightDir = flag.String("flight", "", "flight-recorder directory: the node's black-box ring is dumped here on panics, fence/breaker storms and armed crash points; empty = off")
		flightInt = flag.Duration("flight-interval", 30*time.Second, "background flight-recorder flush interval, so even a SIGKILL'd node leaves a dump at most this old")
		fleet     = flag.String("fleet", "", "comma-separated name=addr peer daemons to aggregate under /metrics?scope=cluster and /cluster")
		sloTick   = flag.Duration("slo-interval", 2*time.Second, "SLO burn-rate evaluation interval (wall time; needs -store for the declared objectives)")
		verbose   = flag.Bool("v", false, "log runtime events")
	)
	flag.Parse()

	specs, err := parseGPUs(*gpus)
	if err != nil {
		log.Fatalf("gvrtd: %v", err)
	}

	cfg := core.Config{
		VGPUsPerDevice:  *vgpus,
		EnableMigration: *migrate,
		AutoCheckpoint:  *autoCkpt,
	}
	switch strings.ToLower(*policy) {
	case "fcfs":
		cfg.Policy = sched.FCFS{}
	case "sjf":
		cfg.Policy = sched.ShortestJobFirst{}
	case "credit":
		cfg.Policy = sched.CreditBased{}
	default:
		log.Fatalf("gvrtd: unknown policy %q", *policy)
	}
	if *peer != "" && *threshold > 0 {
		addr := *peer
		cfg.OffloadThreshold = *threshold
		cfg.PeerDial = func() (transport.Conn, error) { return transport.Dial(addr) }
	}
	if *verbose {
		cfg.OnEvent = func(e trace.Event) { log.Printf("gvrtd: %v", e) }
	}
	// The operator plane's /tracez and /trace.json need a recorder;
	// arming it only with -http keeps the zero-observer fast path.
	if *httpAddr != "" {
		cfg.Trace = trace.NewRecorder(*traceCap)
	}

	name := *nodeName
	if name == "" {
		name = *listen
	}

	// Flight recorder (DESIGN.md §15): armed before the runtime boots so
	// even the first cold-path event lands in the ring, and chained in
	// front of the crash handler so an armed SIGKILL writes the black
	// box to disk first.
	var flight *obs.FlightRecorder
	onCrash := ckptlog.Die
	if *flightDir != "" {
		flight = obs.NewFlightRecorder(name, *flightDir, 0)
		cfg.Flight = flight
		onCrash = flight.WrapCrash(ckptlog.Die)
		defer func() {
			if r := recover(); r != nil {
				flight.Dump(fmt.Sprintf("panic: %v", r))
				panic(r)
			}
		}()
	}

	clock := sim.NewClock(*scale)
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	rt, err := core.New(cudart.New(clock, devs...), cfg)
	if err != nil {
		log.Fatalf("gvrtd: %v", err)
	}
	defer rt.Close()

	// Crash-consistent durability (DESIGN.md §9): recover the journal
	// first, so sessions committed before a daemon kill come back as
	// resumable orphans. A corrupt snapshot header is fatal — starting
	// empty would silently discard every committed session — while torn
	// tails and individually corrupt context images are repaired loudly.
	var jnl *ckptlog.Journal
	if *journal != "" {
		var rec *ckptlog.Recovered
		jnl, rec, err = ckptlog.Open(*journal, ckptlog.Options{
			OnCrash: onCrash,
			Logf: func(format string, args ...any) {
				log.Printf("gvrtd: journal: "+format, args...)
			},
		})
		if err != nil {
			if errors.Is(err, ckptlog.ErrCorruptSnapshot) {
				log.Fatalf("gvrtd: journal %s is unrecoverable (%v); refusing to discard committed sessions — restore the directory or move it aside", *journal, err)
			}
			log.Fatalf("gvrtd: opening journal %s: %v", *journal, err)
		}
		if rec.TornBytes > 0 {
			log.Printf("gvrtd: journal: truncated %d torn tail bytes (interrupted write)", rec.TornBytes)
		}
		for _, q := range rec.Quarantined {
			log.Printf("gvrtd: journal: QUARANTINED %v — that session is lost, others recovered", q)
		}
		if err := rt.RecoverFromJournal(rec); err != nil {
			log.Fatalf("gvrtd: recovering journal state: %v", err)
		}
		if n := len(rec.Images); n > 0 {
			fmt.Fprintf(os.Stderr, "gvrtd: recovered %d session(s) from journal %s\n", n, *journal)
		}
	}

	// Attach after recovery: all mutations from here on are shadowed to
	// the journal.
	if jnl != nil {
		if err := rt.AttachJournal(jnl); err != nil {
			log.Fatalf("gvrtd: attaching journal: %v", err)
		}
	}

	// Crash-resumable control plane (DESIGN.md §14): open the store,
	// resolve operations a previous run left mid-flight (resume the
	// forward-safe ones, roll back the rest), then reconcile the runtime
	// with the committed state — quotas re-applied, drained devices
	// re-drained.
	var ctrl *ctrlplane.Manager
	var ctrlStore *ctrlplane.Store
	if *storeDir != "" {
		ctrlStore, err = ctrlplane.Open(*storeDir, ctrlplane.Options{
			OnCrash: onCrash,
			Logf: func(format string, args ...any) {
				log.Printf("gvrtd: store: "+format, args...)
			},
		})
		if err != nil {
			if errors.Is(err, ctrlplane.ErrCorruptSnapshot) {
				log.Fatalf("gvrtd: control-plane store %s is unrecoverable (%v); restore the directory or move it aside", *storeDir, err)
			}
			log.Fatalf("gvrtd: opening control-plane store %s: %v", *storeDir, err)
		}
		ctrl = ctrlplane.NewManager(ctrlStore, ctrlplane.ManagerOptions{
			Hooks:   rt,
			OnCrash: onCrash,
			Trace:   cfg.Trace,
			Now:     rt.Clock().Now,
			Logf: func(format string, args ...any) {
				log.Printf("gvrtd: ctrl: "+format, args...)
			},
		})
		if err := ctrl.Resume(); err != nil {
			log.Fatalf("gvrtd: resuming control-plane operations: %v", err)
		}
		if err := ctrl.SyncDevices(); err != nil {
			log.Fatalf("gvrtd: syncing device membership: %v", err)
		}
		if err := ctrl.ApplyStored(); err != nil {
			log.Printf("gvrtd: re-applying stored control-plane state: %v", err)
		}
		if err := ctrl.RegisterNode(name, rt.DeviceCount()); err != nil {
			log.Printf("gvrtd: registering node: %v", err)
		}
		if ops := ctrl.Ops(); len(ops) > 0 {
			log.Printf("gvrtd: %d control-plane operation(s) stuck; inspect /ops and POST /ops/cleanup", len(ops))
		}
	}

	// Background observability loops stop when main returns; the flight
	// recorder writes a final "shutdown" dump on the way out.
	stop := make(chan struct{})
	defer close(stop)
	if flight != nil {
		go flight.Run(*flightInt, stop)
		fmt.Fprintf(os.Stderr, "gvrtd: flight recorder armed, dumps to %s\n", flight.Path())
	}

	// Fleet aggregation (DESIGN.md §15): a head-node collector over the
	// local snapshot plus each -fleet peer, pulled on demand by
	// /metrics?scope=cluster, /cluster and the cluster SLO rollup.
	var collector *obs.Collector
	if *fleet != "" {
		collector = obs.NewCollector(name, rt.Metrics)
		for _, p := range strings.Split(*fleet, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			peerName, addr, ok := strings.Cut(p, "=")
			if !ok {
				peerName, addr = p, p
			}
			collector.AddPeer(peerName, func() (api.RuntimeStats, error) {
				conn, err := transport.Dial(addr)
				if err != nil {
					return api.RuntimeStats{}, err
				}
				c := frontend.Connect(conn)
				defer c.Close()
				return c.Stats()
			})
		}
		fmt.Fprintf(os.Stderr, "gvrtd: fleet aggregation over peers %v\n", collector.Peers())
	}

	// SLO burn-rate engine: objectives come from the control-plane store
	// (PUT /slos/{tenant}); usage is the cluster rollup when a fleet is
	// configured, node-local otherwise. Alert-state transitions ride the
	// /events SSE stream as kind "slo" events.
	var slo *obs.SLOEngine
	if ctrl != nil {
		usage := func() map[string]api.TenantUsage { return rt.TenantAttribution() }
		if collector != nil {
			usage = func() map[string]api.TenantUsage { return collector.Collect().Merged.Tenants }
		}
		slo = obs.NewSLOEngine(obs.SLOEngineOptions{
			Objectives: func() []obs.Objective {
				recs := ctrl.SLOs()
				objs := make([]obs.Objective, len(recs))
				for i, r := range recs {
					objs[i] = obs.Objective{
						Tenant:        r.Tenant,
						LaunchP99NS:   r.LaunchP99NS,
						MaxErrorRatio: r.MaxErrorRatio,
					}
				}
				return objs
			},
			Usage: usage,
			Publish: func(ev obs.SLOEvent) {
				detail, err := json.Marshal(ev)
				if err != nil {
					return
				}
				ctrlStore.Inject(ctrlplane.Event{Kind: "slo", Detail: detail})
				log.Printf("gvrtd: slo: tenant %s %s breaching=%v short=%.2f long=%.2f",
					ev.Status.Tenant, ev.Status.Kind, ev.Status.Breaching,
					ev.Status.ShortBurn, ev.Status.LongBurn)
			},
		})
		go slo.Run(*sloTick, stop)
	}

	l, err := transport.Listen(*listen)
	if err != nil {
		log.Fatalf("gvrtd: %v", err)
	}
	defer l.Close()

	// Graceful shutdown: SIGTERM/SIGINT stops admitting (new connections
	// are shed, live session leases revoked so peers can claim them),
	// closes the listener, compacts and closes the journal and the
	// store, then exits 0. SIGKILL remains the crash-consistency path
	// the torture harnesses exercise.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var draining atomic.Bool
	go func() {
		<-sig
		draining.Store(true)
		rt.BeginDrain()
		l.Close() // unblocks ServeListener; no new connections
	}()

	if *httpAddr != "" {
		addr := *httpAddr
		src := opserver.Source{
			Stats: rt.Metrics,
			Trace: rt.TraceRecorder(),
			Now:   rt.Clock().Now,
			Name:  "gvrtd " + *listen,
			Ctrl:  ctrl,
			Fleet: collector,
			SLO:   slo,
		}
		if jnl != nil {
			src.JournalHealthy = jnl.Healthy
		}
		go func() {
			if err := http.ListenAndServe(addr, opserver.Handler(src)); err != nil {
				log.Printf("gvrtd: operator plane on %s: %v", addr, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "gvrtd: operator plane on http://%s (/metrics /statusz /tracez /trace.json /healthz /debug/pprof)\n", addr)
	}

	fmt.Fprintf(os.Stderr, "gvrtd: serving %d GPUs (%d vGPUs) on %s (scale %g)\n",
		len(specs), len(specs)**vgpus, l.Addr(), *scale)
	if cfg.OffloadThreshold > 0 {
		fmt.Fprintf(os.Stderr, "gvrtd: offloading to %s beyond queue depth %d\n", *peer, *threshold)
	}

	// Periodically report utilization-style metrics.
	if *verbose {
		go func() {
			for {
				time.Sleep(5 * time.Second)
				m := rt.Metrics()
				log.Printf("gvrtd: calls=%d binds=%d swaps=%d migrations=%d offloaded=%d",
					m.CallsServed, m.Binds, m.Memory.SwapOps, m.Migrations, m.Offloaded)
			}
		}()
	}

	rt.ServeListener(l)

	// ServeListener returns once the listener closes. If that was the
	// drain goroutine's doing, finish the shutdown here on the main
	// goroutine so the process cannot exit before the journal and store
	// are flushed.
	if !draining.Load() {
		return
	}
	code := 0
	if jnl != nil {
		// Fold the journal into a fresh snapshot so the next boot
		// recovers fast, then close it cleanly.
		if err := jnl.Compact(); err != nil {
			log.Printf("gvrtd: journal compaction on shutdown: %v", err)
		}
		if err := jnl.Close(); err != nil {
			log.Printf("gvrtd: closing journal: %v", err)
			code = 1
		}
	}
	if ctrlStore != nil {
		if err := ctrlStore.Compact(); err != nil {
			log.Printf("gvrtd: store compaction on shutdown: %v", err)
		}
		if err := ctrlStore.Close(); err != nil {
			log.Printf("gvrtd: closing store: %v", err)
			code = 1
		}
	}
	if flight != nil {
		// os.Exit skips the deferred stop: write the final black box
		// explicitly so the drain itself is post-mortem-visible.
		if _, err := flight.Dump("shutdown"); err != nil {
			log.Printf("gvrtd: flight shutdown dump: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "gvrtd: drained, exiting\n")
	os.Exit(code)
}
