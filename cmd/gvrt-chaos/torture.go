// Crash-torture mode: gvrt-chaos re-execs itself as a journal-backed
// daemon child, runs a data-checked workload against it over TCP, and
// SIGKILLs the child at an armed journal crash point (pre-fsync,
// post-fsync, mid-compaction — the child kills itself via the fault
// plane's ActCrash, the closest a process gets to losing power at that
// exact boundary). A fresh child then recovers the journal directory
// and every session whose launches were acknowledged must resume with
// its data reflecting every acknowledged kernel — plus at most one
// more, for a commit that became durable just before the crash ate its
// acknowledgement. A torn-tail scenario appends garbage to the journal
// between kill and restart to prove recovery truncates it.
//
//	gvrt-chaos -torture                      # default 8 rounds
//	gvrt-chaos -torture -torture-rounds 4    # CI smoke
//	GVRT_CHAOS_SEED=7 gvrt-chaos -torture    # replay a seeded schedule
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/obs"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// Environment contract between the torture parent and its daemon child.
// The failover-torture additions (node/base/migdir) are optional; when
// unset the child behaves exactly as the original crash-torture daemon.
const (
	envTortureChild  = "GVRT_TORTURE_CHILD"  // "1": run as daemon child
	envTortureDir    = "GVRT_TORTURE_DIR"    // journal directory
	envTorturePoint  = "GVRT_TORTURE_POINT"  // armed crash point ("" = none)
	envTortureNth    = "GVRT_TORTURE_NTH"    // 1-based occurrence to crash at
	envTortureNode   = "GVRT_TORTURE_NODE"   // node name for leases/migration ("" = no lease table)
	envTortureBase   = "GVRT_TORTURE_BASE"   // SessionBase for locally-created contexts
	envTortureMigDir = "GVRT_TORTURE_MIGDIR" // migration pending-op/spool directory
	envTortureFlight = "GVRT_TORTURE_FLIGHT" // flight-recorder dump directory ("" = off)
)

// tortureChild is the daemon half: open (and recover) the journal, arm
// the requested crash point with the production SIGKILL handler, print
// the listen address for the parent, serve until killed.
func tortureChild() {
	dir := os.Getenv(envTortureDir)
	var plane *faultinject.Plane
	if point := os.Getenv(envTorturePoint); point != "" {
		nth, err := strconv.ParseUint(os.Getenv(envTortureNth), 10, 64)
		if err != nil || nth == 0 {
			fmt.Fprintf(os.Stderr, "torture child: bad %s: %v\n", envTortureNth, err)
			os.Exit(2)
		}
		plane = faultinject.New(faultinject.Plan{
			Name: "torture",
			Rules: []faultinject.Rule{
				{Point: faultinject.Point(point), AtNth: nth, Action: faultinject.ActCrash},
			},
		})
	}
	// The flight recorder makes every armed SIGKILL leave a post-mortem:
	// WrapCrash dumps the black box to disk before the process dies.
	var flight *obs.FlightRecorder
	onCrash := ckptlog.Die
	if fdir := os.Getenv(envTortureFlight); fdir != "" {
		node := os.Getenv(envTortureNode)
		if node == "" {
			node = "torture"
		}
		flight = obs.NewFlightRecorder(node, fdir, 0)
		onCrash = flight.WrapCrash(ckptlog.Die)
	}
	jnl, rec, err := ckptlog.Open(dir, ckptlog.Options{
		Faults:  plane,
		OnCrash: onCrash,
		// Compact early and often so mid-compaction crash points are
		// reachable within a short torture workload.
		CompactBytes: 8 << 10,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "torture child: journal: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture child: opening journal: %v\n", err)
		os.Exit(2)
	}

	clock := sim.NewClock(1e-7)
	spec := gpu.Spec{Name: "torture-gpu", SMs: 4, CoresPerSM: 8, ClockMHz: 1000,
		MemBytes: 1 << 20, Speed: 1, BandwidthBps: 1 << 40}
	dev := gpu.NewDevice(0, spec, clock)
	crt := cudart.New(clock, dev)
	crt.SetLimits(1024, 0, 0)
	cfg := core.Config{
		VGPUsPerDevice: 4,
		CallOverhead:   -1,
		BindBackoff:    time.Millisecond,
		Faults:         plane,
		NodeName:       os.Getenv(envTortureNode),
		MigrateDir:     os.Getenv(envTortureMigDir),
		Flight:         flight,
	}
	if b := os.Getenv(envTortureBase); b != "" {
		if cfg.SessionBase, err = strconv.ParseInt(b, 10, 64); err != nil {
			fmt.Fprintf(os.Stderr, "torture child: bad %s: %v\n", envTortureBase, err)
			os.Exit(2)
		}
	}
	if cfg.NodeName != "" {
		// Failover-torture children fence mutating calls against a local
		// lease table; the epoch bump that deposes a migrated-away session
		// happens in-process, so no cross-process table is needed.
		cfg.Leases = failover.NewTable(time.Hour, clock.Now)
	}
	rt, err := core.New(crt, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture child: runtime: %v\n", err)
		os.Exit(2)
	}
	if err := rt.RecoverFromJournal(rec); err != nil {
		fmt.Fprintf(os.Stderr, "torture child: recovering: %v\n", err)
		os.Exit(2)
	}
	if err := rt.AttachJournal(jnl); err != nil {
		fmt.Fprintf(os.Stderr, "torture child: attaching journal: %v\n", err)
		os.Exit(2)
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture child: listen: %v\n", err)
		os.Exit(2)
	}
	// The handshake line the parent blocks on: recovery stats + address.
	fmt.Printf("TORTURE_READY %d %d %s\n",
		len(rec.Images), rec.TornBytes, l.Addr())
	rt.ServeListener(l)
}

// child is one spawned daemon process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// childOpts configures one daemon child spawn.
type childOpts struct {
	dir    string // journal directory
	point  string // armed crash point ("" = none)
	nth    uint64 // 1-based occurrence to crash at
	node   string // node name ("" = plain crash-torture child)
	base   int64  // SessionBase for locally-created contexts
	migDir string // migration pending-op/spool directory
	flight string // flight-recorder dump directory ("" = off)
}

// startChild re-execs this binary as a daemon child, arming crash
// point/nth when o.point is non-empty, and waits for its handshake.
func startChild(exe string, o childOpts, timeout time.Duration) (*child, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envTortureChild+"=1",
		envTortureDir+"="+o.dir,
		envTorturePoint+"="+o.point,
		envTortureNth+"="+strconv.FormatUint(o.nth, 10),
		envTortureNode+"="+o.node,
		envTortureBase+"="+strconv.FormatInt(o.base, 10),
		envTortureMigDir+"="+o.migDir,
		envTortureFlight+"="+o.flight,
	)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var images int
			var torn int64
			var addr string
			if n, _ := fmt.Sscanf(sc.Text(), "TORTURE_READY %d %d %s", &images, &torn, &addr); n == 3 {
				ready <- addr
			}
		}
	}()
	go func() { c.exited <- cmd.Wait() }()
	select {
	case c.addr = <-ready:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("child died before handshake")
	case <-time.After(timeout):
		cmd.Process.Kill()
		return nil, fmt.Errorf("child handshake timed out")
	}
}

// kill SIGKILLs the child (if still alive) and reaps it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
	}
}

// awaitExit waits for the child to die on its own (the armed crash
// point firing); on timeout it hard-kills, which is the same SIGKILL
// from the workload's point of view.
func (c *child) awaitExit(timeout time.Duration) {
	select {
	case <-c.exited:
	case <-time.After(timeout):
		c.kill()
	}
}

// tortureSession is the parent-side record of one workload session: the
// ground truth recovery is judged against.
type tortureSession struct {
	id    int64
	ptr   api.DevPtr
	seed  byte
	wrote bool // the seed MemcpyHD was acknowledged
	acked int  // launches the daemon acknowledged
	err   error
	// client stays open until the victim daemon is dead: an orderly
	// Close would be served as a context release, retiring the session
	// from the journal — the opposite of what a crash test wants.
	client *frontend.Client
}

// tortureScenarios is the schedule rounds cycle through.
var tortureScenarios = []struct {
	name  string
	point string // "" = kill after the workload completes
	torn  bool   // append garbage to the journal before recovery
}{
	{name: "pre-fsync crash", point: string(faultinject.PointJournalPreSync)},
	{name: "post-fsync crash", point: string(faultinject.PointJournalPostSync)},
	{name: "mid-compaction crash", point: string(faultinject.PointJournalCompact)},
	{name: "kill + torn tail", torn: true},
}

// runTorture executes rounds crash-torture rounds and reports failures.
// Each round gets a fresh journal directory; the scenario schedule and
// every randomized choice derive from the seed.
func runTorture(seed int64, rounds, sessions, launches int, timeout time.Duration) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp("", "gvrt-torture-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	rng := sim.NewRNG(seed)
	fmt.Printf("=== gvrt-chaos crash torture: seed %d, %d rounds ===\n", seed, rounds)
	failures := 0
	for r := 0; r < rounds; r++ {
		sc := tortureScenarios[r%len(tortureScenarios)]
		var nth uint64
		switch sc.point {
		case string(faultinject.PointJournalCompact):
			// Two crash points per compaction: 1 = temp written but not
			// renamed (old state must recover), 2 = renamed but journal not
			// truncated (new state must recover, fence makes stale records
			// no-ops).
			nth = uint64(1 + rng.Intn(2))
		case "":
			// Kill after the workload; every acknowledged launch is durable.
		default:
			nth = uint64(3 + rng.Intn(4*launches))
		}
		dir := filepath.Join(root, fmt.Sprintf("round%d", r))
		label := sc.name
		if nth > 0 {
			label = fmt.Sprintf("%s (occurrence %d)", sc.name, nth)
		}
		if err := tortureRound(exe, dir, sc.point, nth, sc.torn, rng, sessions, launches, timeout); err != nil {
			fmt.Printf("round %d [%s]: FAIL: %v\n", r, label, err)
			failures++
		} else {
			fmt.Printf("round %d [%s]: ok\n", r, label)
		}
	}
	if failures > 0 {
		fmt.Printf("crash torture: %d/%d rounds FAILED\n", failures, rounds)
		fmt.Printf("reproduce: gvrt-chaos -torture -seed %d (or GVRT_CHAOS_SEED=%d)\n", seed, seed)
		return 1
	}
	fmt.Printf("crash torture: all %d rounds survived; every committed session recovered intact\n", rounds)
	return 0
}

// tortureRound runs one crash → recover → verify cycle.
func tortureRound(exe, dir, point string, nth uint64, torn bool, rng *sim.RNG,
	sessions, launches int, timeout time.Duration) error {
	victim, err := startChild(exe, childOpts{dir: dir, point: point, nth: nth}, timeout)
	if err != nil {
		return fmt.Errorf("starting victim daemon: %v", err)
	}
	defer victim.kill()

	recs := runWorkload(victim.addr, rng, sessions, launches)
	if point == "" {
		victim.kill() // the scheduled hard kill after a completed workload
	} else {
		victim.awaitExit(timeout)
	}
	for _, s := range recs {
		if s.client != nil {
			s.client.Close() // daemon is dead; this only frees the socket
		}
	}

	if torn {
		// A torn write: garbage bytes where the next record would go.
		garbage := make([]byte, 1+rng.Intn(200))
		for i := range garbage {
			garbage[i] = byte(rng.Intn(256))
		}
		f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("injecting torn tail: %v", err)
		}
		f.Write(garbage)
		f.Close()
	}

	// Recovery: a fresh daemon over the same directory, nothing armed.
	doctor, err := startChild(exe, childOpts{dir: dir}, timeout)
	if err != nil {
		return fmt.Errorf("starting recovery daemon: %v", err)
	}
	defer doctor.kill()

	committed, verified, skipped := 0, 0, 0
	for i, s := range recs {
		if s.id == 0 {
			// The session died before it even learned its ID; nothing to
			// judge recovery against — but a skip is not a pass, so it is
			// counted and the round fails if every subcheck skipped.
			skipped++
			fmt.Printf("  skip: session %d never learned its ID (%v)\n", i, s.err)
			continue
		}
		if s.acked > 0 {
			committed++
		}
		if err := verifySession(doctor.addr, s, point == "" || torn); err != nil {
			return fmt.Errorf("session %d (id %d, %d acked): %v", i, s.id, s.acked, err)
		}
		verified++
	}
	if verified == 0 {
		return fmt.Errorf("verdict vacuous: all %d sessions skipped on setup errors; nothing was verified", skipped)
	}
	if committed == 0 {
		fmt.Printf("  note: crash landed before any launch was acknowledged; "+
			"verified %d uncommitted sessions loosely\n", verified)
	}
	return nil
}

// runWorkload drives sessions concurrent data-checked sessions against
// the daemon at addr: each seeds a buffer and issues increments until it
// finishes or the daemon dies under it. Only daemon-acknowledged calls
// count — that is exactly the durability contract under test. Clients
// are left open (an orderly Close would retire the session); the caller
// closes them once the victim is dead.
func runWorkload(addr string, rng *sim.RNG, sessions, launches int) []*tortureSession {
	recs := make([]*tortureSession, sessions)
	done := make(chan struct{})
	for i := range recs {
		recs[i] = &tortureSession{seed: byte(64 + i)}
		go func(s *tortureSession, pressure uint64) {
			defer func() { done <- struct{}{} }()
			conn, err := transport.Dial(addr)
			if err != nil {
				s.err = err
				return
			}
			c := frontend.Connect(conn)
			s.client = c
			if s.err = c.RegisterFatBinary(tortureBinary()); s.err != nil {
				return
			}
			if s.ptr, s.err = c.Malloc(pressure); s.err != nil {
				return
			}
			if s.id, s.err = c.SessionID(); s.err != nil {
				return
			}
			if s.err = c.MemcpyHD(s.ptr, []byte{s.seed, s.seed, s.seed, s.seed}); s.err != nil {
				return
			}
			s.wrote = true
			for k := 0; k < launches; k++ {
				if err := c.Launch(api.LaunchCall{
					Kernel: "inc", PtrArgs: []api.DevPtr{s.ptr}, Scalars: []uint64{4},
				}); err != nil {
					s.err = err
					return
				}
				s.acked++
			}
		}(recs[i], uint64(32+rng.Intn(64))<<10)
	}
	for range recs {
		<-done
	}
	return recs
}

// verifySession resumes one session against the recovery daemon and
// checks its bytes. A mid-commit crash may have made one launch durable
// while eating its acknowledgement, so the accepted value is acked or
// acked+1 increments over the seed; after a clean kill (exact=true) it
// must be acked exactly. A post-resume increment must then advance the
// data by exactly one. Sessions with no acknowledged launch carry no
// durability promise: they may legitimately be gone (Resume rejected),
// but if they did survive their bytes must still be consistent.
func verifySession(addr string, s *tortureSession, exact bool) error {
	conn, err := transport.Dial(addr)
	if err != nil {
		return fmt.Errorf("dialing recovery daemon: %v", err)
	}
	c := frontend.Connect(conn)
	defer c.Close()
	if err := c.Resume(s.id); err != nil {
		if s.acked == 0 && api.Code(err) == api.ErrInvalidValue {
			return nil // never became durable; an allowed outcome
		}
		return fmt.Errorf("resume: %v", err)
	}
	if err := c.RegisterFatBinary(tortureBinary()); err != nil {
		return fmt.Errorf("re-registering binary: %v", err)
	}
	out, err := c.MemcpyDH(s.ptr, 4)
	if err != nil {
		return fmt.Errorf("reading recovered data: %v", err)
	}
	if len(out) == 0 {
		// The entry recovered without data — only legitimate when the
		// seed write was never acknowledged.
		if s.wrote {
			return fmt.Errorf("recovered data empty after an acknowledged write")
		}
		out = []byte{0, 0, 0, 0}
	}
	if len(out) != 4 {
		return fmt.Errorf("recovered %d bytes, want 4", len(out))
	}
	var want []byte
	switch {
	case !s.wrote:
		// The seed write was never acknowledged: the buffer may hold the
		// seed (write durable, ack lost) or still be zero.
		want = []byte{0, s.seed}
	case exact:
		want = []byte{s.seed + byte(s.acked)}
	default:
		want = []byte{s.seed + byte(s.acked), s.seed + byte(s.acked) + 1}
	}
	base := out[0]
	okBase := false
	for _, w := range want {
		okBase = okBase || base == w
	}
	if !okBase {
		return fmt.Errorf("recovered byte = %d, want one of %v (%d acked, wrote=%v)",
			base, want, s.acked, s.wrote)
	}
	for i := 1; i < 4; i++ {
		if out[i] != base {
			return fmt.Errorf("recovered data not uniform: %v", out)
		}
	}
	if err := c.Launch(api.LaunchCall{
		Kernel: "inc", PtrArgs: []api.DevPtr{s.ptr}, Scalars: []uint64{4},
	}); err != nil {
		return fmt.Errorf("post-recovery launch: %v", err)
	}
	out, err = c.MemcpyDH(s.ptr, 4)
	if err != nil {
		return fmt.Errorf("post-recovery read: %v", err)
	}
	if out[0] != base+1 {
		return fmt.Errorf("post-recovery byte = %d, want %d", out[0], base+1)
	}
	return nil
}

func tortureBinary() api.FatBinary {
	return api.FatBinary{
		ID:      chaosBinID,
		Kernels: []api.KernelMeta{{Name: "inc", BaseTime: time.Millisecond}},
	}
}
