// The SIGKILL scaffold the three torture modes (-torture, -failover,
// -ctrlplane) share: gvrt-chaos re-execs itself as a daemon child, arms
// one crash point in it through the fault plane (the child SIGKILLs
// itself via ActCrash, the closest a process gets to losing power at
// that exact boundary), drives a workload until the point fires, and
// has a fresh child recover the same directories for the mode's
// verdict. A mode supplies only its scenario table and its round.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/gpu"
	"gvrt/internal/obs"
	"gvrt/internal/opserver"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// envChild carries a daemon child's JSON-encoded childOpts; its presence
// is what makes this binary run as a child.
const envChild = "GVRT_CHAOS_CHILD"

// childOpts configures one daemon child. Every child is the same node —
// two 1 MiB devices × 2 vGPUs — plus the durable planes its directories
// name.
type childOpts struct {
	Journal  string            // checkpoint journal directory ("" = none)
	Store    string            // control-plane store directory ("" = no store, no REST plane)
	Point    faultinject.Point // armed crash point ("" = none)
	Nth      uint64            // 1-based occurrence to crash at
	Node     string            // node name; non-empty adds a lease table
	Base     int64             // SessionBase for locally-created contexts
	MigDir   string            // migration pending-op/spool directory
	Flight   string            // flight-recorder dump directory ("" = off)
	NoResume bool              // mark pending control-plane ops stuck at boot
}

// runChild is the daemon half: boot the node, recover what its
// directories hold, arm the crash point with the production SIGKILL
// handler, print the handshake line and serve until killed.
func runChild(spec string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "chaos child: "+format+"\n", args...)
	}
	die := func(what string, err error) {
		logf("%s: %v", what, err)
		os.Exit(2)
	}
	var o childOpts
	if err := json.Unmarshal([]byte(spec), &o); err != nil {
		die("decoding "+envChild, err)
	}
	var plane *faultinject.Plane
	if o.Point != "" {
		plane = faultinject.New(faultinject.Plan{
			Name:  "chaos-child",
			Rules: []faultinject.Rule{{Point: o.Point, AtNth: o.Nth, Action: faultinject.ActCrash}},
		})
	}
	// The flight recorder makes an armed SIGKILL leave a post-mortem:
	// WrapCrash dumps the black box to disk before the process dies.
	var flight *obs.FlightRecorder
	onCrash := ckptlog.Die
	if o.Flight != "" {
		flight = obs.NewFlightRecorder(o.Node, o.Flight, 0)
		onCrash = flight.WrapCrash(ckptlog.Die)
	}

	clock := sim.NewClock(1e-7)
	dev := gpu.Spec{Name: "chaos-gpu", SMs: 4, CoresPerSM: 8, ClockMHz: 1000,
		MemBytes: 1 << 20, Speed: 1, BandwidthBps: 1 << 40}
	crt := cudart.New(clock, gpu.NewDevice(0, dev, clock), gpu.NewDevice(1, dev, clock))
	crt.SetLimits(1024, 0, 0)
	cfg := core.Config{
		VGPUsPerDevice: 2,
		CallOverhead:   -1,
		BindBackoff:    time.Millisecond,
		Faults:         plane,
		NodeName:       o.Node,
		SessionBase:    o.Base,
		MigrateDir:     o.MigDir,
		Flight:         flight,
	}
	if o.Node != "" {
		// Failover children fence mutating calls against a local lease
		// table; the epoch bump that deposes a migrated-away session
		// happens in-process, so no cross-process table is needed.
		cfg.Leases = failover.NewTable(time.Hour, clock.Now)
	}
	rt, err := core.New(crt, cfg)
	if err != nil {
		die("runtime", err)
	}
	if o.Journal != "" {
		jnl, rec, err := ckptlog.Open(o.Journal, ckptlog.Options{
			Faults:  plane,
			OnCrash: onCrash,
			// Compact early and often so mid-compaction crash points are
			// reachable within a short torture workload.
			CompactBytes: 8 << 10,
			Logf:         func(f string, a ...any) { logf("journal: "+f, a...) },
		})
		if err != nil {
			die("opening journal", err)
		}
		if err := rt.RecoverFromJournal(rec); err != nil {
			die("recovering", err)
		}
		if err := rt.AttachJournal(jnl); err != nil {
			die("attaching journal", err)
		}
	}
	httpAddr := "-"
	if o.Store != "" {
		store, err := ctrlplane.Open(o.Store, ctrlplane.Options{
			Faults:  plane,
			OnCrash: onCrash,
			// Compact early so mid-compaction crash points are reachable
			// within a short mutation script.
			CompactBytes: 2 << 10,
			Logf:         func(f string, a ...any) { logf("store: "+f, a...) },
		})
		if err != nil {
			die("opening store", err)
		}
		mgr := ctrlplane.NewManager(store, ctrlplane.ManagerOptions{
			Hooks:         rt,
			Faults:        plane,
			OnCrash:       onCrash,
			Now:           clock.Now,
			DisableResume: o.NoResume,
			Logf:          func(f string, a ...any) { logf("ctrl: "+f, a...) },
		})
		if err := mgr.Resume(); err != nil {
			die("resuming pending operations", err)
		}
		if err := mgr.SyncDevices(); err != nil {
			die("syncing device records", err)
		}
		if err := mgr.ApplyStored(); err != nil {
			logf("re-applying stored state: %v", err)
		}
		if err := mgr.RegisterNode(rt.NodeName(), rt.DeviceCount()); err != nil {
			die("registering node", err)
		}
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			die("listen", err)
		}
		go http.Serve(hl, opserver.Handler(opserver.Source{
			Stats: rt.Metrics,
			Now:   clock.Now,
			Name:  rt.NodeName(),
			Ctrl:  mgr,
		}))
		httpAddr = hl.Addr().String()
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		die("listen", err)
	}
	// The handshake line the parent blocks on.
	fmt.Printf("READY %s %s\n", l.Addr(), httpAddr)
	rt.ServeListener(l)
}

// child is one spawned daemon process.
type child struct {
	cmd  *exec.Cmd
	addr string        // wire listen address
	http string        // REST listen address ("-" = no REST plane)
	done chan struct{} // closed once the process has exited and been reaped
}

// spawn re-execs this binary as a daemon child configured by o and waits
// for its handshake.
func (r *round) spawn(o childOpts) (*child, error) {
	spec, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.exe)
	cmd.Env = append(os.Environ(), envChild+"="+string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	ready := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var a [2]string
			if n, _ := fmt.Sscanf(sc.Text(), "READY %s %s", &a[0], &a[1]); n == 2 {
				ready <- a
			}
		}
	}()
	go func() {
		_ = cmd.Wait() // the exit status of a SIGKILLed child says nothing
		close(c.done)
	}()
	select {
	case a := <-ready:
		c.addr, c.http = a[0], a[1]
		return c, nil
	case <-c.done:
		return nil, errors.New("child died before handshake")
	case <-time.After(r.timeout):
		c.kill()
		return nil, errors.New("child handshake timed out")
	}
}

// kill SIGKILLs the child if it is still alive and waits until it is
// reaped. On a reaped child it returns at once.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only once the child has exited
	<-c.done
}

// awaitExit waits up to timeout for the child to die on its own — its
// armed crash point firing — and reports whether it did. A child still
// alive at the deadline is SIGKILLed.
func (c *child) awaitExit(timeout time.Duration) bool {
	select {
	case <-c.done:
		return true
	case <-time.After(timeout):
		c.kill()
		return false
	}
}

// scenario is one row of a torture mode's schedule.
type scenario struct {
	name  string
	point faultinject.Point // armed crash point ("" = SIGKILL once the workload is done)
	// The occurrence to crash at is drawn from [first, first+span); span
	// 0 means through sessions × launches, at most one per acknowledged
	// launch — each commits, and so passes every fsync boundary, once.
	first, span int
	torn        bool // -torture: append garbage to the journal before recovery
	target      bool // -failover: arm the target instead of the source
	noResume    bool // -ctrlplane: recover with resume disabled, so pending ops surface stuck
}

// mode is one SIGKILL torture mode.
type mode struct {
	name, flag string
	rounds     int    // default round count
	survived   string // what a clean run proved
	scenarios  []scenario
	// round runs one crash → recover → verify cycle and reports whether
	// any work was acknowledged before the crash.
	round func(r *round) (acked bool, err error)
}

// round is what the driver hands a mode's round function.
type round struct {
	scenario
	nth                uint64 // occurrence the crash point is armed at
	dir                string // fresh directory for this round's durable state
	exe                string
	rng                *sim.RNG
	sessions, launches int
	timeout            time.Duration
}

// run plays rounds rounds of m, cycling its scenarios with every
// randomized choice derived from seed, and returns the exit status. A
// scenario whose every round crashed before anything was acknowledged
// verified nothing, which fails the run.
func (m mode) run(seed int64, rounds, sessions, launches int, timeout time.Duration) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp("", "gvrt"+m.flag+"-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	rng := sim.NewRNG(seed)
	fmt.Printf("=== gvrt-chaos %s torture: seed %d, %d rounds ===\n", m.name, seed, rounds)
	failures := 0
	acked := make([]bool, len(m.scenarios))
	for i := 0; i < rounds; i++ {
		s := i % len(m.scenarios)
		r := &round{scenario: m.scenarios[s], dir: filepath.Join(root, fmt.Sprintf("round%d", i)),
			exe: exe, rng: rng, sessions: sessions, launches: launches, timeout: timeout}
		label := r.name
		if r.point != "" {
			span := r.span
			if span == 0 {
				span = max(1, sessions*launches-r.first+1)
			}
			r.nth = uint64(r.first + rng.Intn(span))
			label = fmt.Sprintf("%s (occurrence %d)", r.name, r.nth)
		}
		ok, err := m.round(r)
		// A failed round already fails the run; it is not also vacuous.
		acked[s] = acked[s] || ok || err != nil
		switch {
		case err != nil:
			fmt.Printf("round %d [%s]: FAIL: %v\n", i, label, err)
			failures++
		case !ok:
			fmt.Printf("round %d [%s]: ok, but the crash landed before any acknowledgement\n", i, label)
		default:
			fmt.Printf("round %d [%s]: ok\n", i, label)
		}
	}
	for s, sc := range m.scenarios[:min(rounds, len(m.scenarios))] {
		if !acked[s] {
			fmt.Printf("verdict vacuous: every %q round crashed before any acknowledgement\n", sc.name)
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("%s torture: %d/%d rounds FAILED\n", m.name, failures, rounds)
		fmt.Printf("reproduce: gvrt-chaos %s -seed %d (or GVRT_CHAOS_SEED=%d)\n", m.flag, seed, seed)
		return 1
	}
	fmt.Printf("%s torture: all %d rounds survived; %s\n", m.name, rounds, m.survived)
	return 0
}

// crashed waits for the round's victim to die at its armed crash point —
// or, in an unarmed scenario, SIGKILLs it — and fails the round when the
// point never fired: a victim that outlived its workload proves nothing
// about the boundary the round is named for.
func (r *round) crashed(victim *child) error {
	if r.point == "" {
		victim.kill()
		return nil
	}
	if !victim.awaitExit(r.timeout) {
		return fmt.Errorf("armed crash point %s (occurrence %d) never fired", r.point, r.nth)
	}
	return nil
}
