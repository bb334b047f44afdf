// Control-plane torture mode: gvrt-chaos re-execs itself as a daemon
// child that owns a transactional control-plane store and serves the
// operator REST surface, then SIGKILLs it mid-mutation at an armed
// crash point (between op steps, pre-fsync, post-fsync, mid-store-
// compaction). A fresh child recovers the store directory and the
// parent audits it field by field over REST: every mutation must be
// fully applied or fully rolled back — no quota with mismatched
// fields, no tenant half-deleted, no device stranded "draining" after
// boot resolution ran. A resume-disabled scenario proves the stuck-op
// path: pending operations surface under /ops as "stuck" and the REST
// cleanup endpoint rolls every one back.
//
//	gvrt-chaos -ctrlplane                     # default 5 rounds
//	gvrt-chaos -ctrlplane -ctrlplane-rounds 3 # CI smoke
//	GVRT_CHAOS_SEED=7 gvrt-chaos -ctrlplane   # replay a seeded schedule
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/cudart"
	"gvrt/internal/faultinject"
	"gvrt/internal/gpu"
	"gvrt/internal/opserver"
	"gvrt/internal/sim"
)

// Environment contract between the ctrlplane-torture parent and its
// daemon child.
const (
	envCtrlChild    = "GVRT_CTRL_CHILD"    // "1": run as control-plane child
	envCtrlDir      = "GVRT_CTRL_DIR"      // store directory
	envCtrlPoint    = "GVRT_CTRL_POINT"    // armed crash point ("" = none)
	envCtrlNth      = "GVRT_CTRL_NTH"      // 1-based occurrence to crash at
	envCtrlNoResume = "GVRT_CTRL_NORESUME" // "1": mark pending ops stuck at boot
)

// ctrlTenants is the tenant set every round's mutation script creates.
var ctrlTenants = []string{"t0", "t1", "t2"}

// ctrlQuotaUpdates is how many quota mutations the script issues; each
// update k sets MaxSessions=k, HostBytes=k<<20 so a recovered quota's
// internal consistency is checkable from the record alone.
const ctrlQuotaUpdates = 9

// ctrlChild is the daemon half: open (and recover) the control-plane
// store, resolve pending operations, arm the requested crash point with
// the production SIGKILL handler, serve the operator REST plane, print
// the listen address for the parent, run until killed.
func ctrlChild() {
	dir := os.Getenv(envCtrlDir)
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ctrl child: "+format+"\n", args...)
	}
	var plane *faultinject.Plane
	if point := os.Getenv(envCtrlPoint); point != "" {
		nth, err := strconv.ParseUint(os.Getenv(envCtrlNth), 10, 64)
		if err != nil || nth == 0 {
			logf("bad %s: %v", envCtrlNth, err)
			os.Exit(2)
		}
		plane = faultinject.New(faultinject.Plan{
			Name: "ctrl-torture",
			Rules: []faultinject.Rule{
				{Point: faultinject.Point(point), AtNth: nth, Action: faultinject.ActCrash},
			},
		})
	}
	store, err := ctrlplane.Open(dir, ctrlplane.Options{
		Faults:  plane,
		OnCrash: ckptlog.Die,
		// Compact early so mid-compaction crash points are reachable
		// within a short mutation script.
		CompactBytes: 2 << 10,
		Logf:         func(f string, a ...any) { logf("store: "+f, a...) },
	})
	if err != nil {
		logf("opening store: %v", err)
		os.Exit(2)
	}

	clock := sim.NewClock(1e-7)
	spec := gpu.Spec{Name: "ctrl-gpu", SMs: 4, CoresPerSM: 8, ClockMHz: 1000,
		MemBytes: 1 << 20, Speed: 1, BandwidthBps: 1 << 40}
	devs := []*gpu.Device{gpu.NewDevice(0, spec, clock), gpu.NewDevice(1, spec, clock)}
	crt := cudart.New(clock, devs...)
	crt.SetLimits(1024, 0, 0)
	rt, err := core.New(crt, core.Config{
		VGPUsPerDevice: 2,
		CallOverhead:   -1,
		BindBackoff:    time.Millisecond,
		Faults:         plane,
	})
	if err != nil {
		logf("runtime: %v", err)
		os.Exit(2)
	}
	mgr := ctrlplane.NewManager(store, ctrlplane.ManagerOptions{
		Hooks:         rt,
		Faults:        plane,
		OnCrash:       ckptlog.Die,
		Now:           clock.Now,
		DisableResume: os.Getenv(envCtrlNoResume) == "1",
		Logf:          func(f string, a ...any) { logf("ctrl: "+f, a...) },
	})
	if err := mgr.Resume(); err != nil {
		logf("resuming pending operations: %v", err)
		os.Exit(2)
	}
	if err := mgr.SyncDevices(); err != nil {
		logf("syncing device records: %v", err)
		os.Exit(2)
	}
	if err := mgr.ApplyStored(); err != nil {
		logf("re-applying stored state: %v", err)
	}
	if err := mgr.RegisterNode("ctrl-torture", rt.DeviceCount()); err != nil {
		logf("registering node: %v", err)
		os.Exit(2)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logf("listen: %v", err)
		os.Exit(2)
	}
	// The handshake line the parent blocks on.
	fmt.Printf("CTRL_READY %s\n", l.Addr())
	http.Serve(l, opserver.Handler(opserver.Source{
		Stats: rt.Metrics,
		Now:   clock.Now,
		Name:  "ctrl-torture",
		Ctrl:  mgr,
	}))
}

// ctrlChildOpts configures one control-plane child spawn.
type ctrlChildOpts struct {
	dir      string // store directory
	point    string // armed crash point ("" = none)
	nth      uint64 // 1-based occurrence to crash at
	noResume bool   // mark pending ops stuck at boot instead of resolving
}

// startCtrlChild re-execs this binary as a control-plane child and
// waits for its handshake.
func startCtrlChild(exe string, o ctrlChildOpts, timeout time.Duration) (*child, error) {
	cmd := exec.Command(exe)
	noResume := "0"
	if o.noResume {
		noResume = "1"
	}
	cmd.Env = append(os.Environ(),
		envCtrlChild+"=1",
		envCtrlDir+"="+o.dir,
		envCtrlPoint+"="+o.point,
		envCtrlNth+"="+strconv.FormatUint(o.nth, 10),
		envCtrlNoResume+"="+noResume,
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
			var addr string
			if n, _ := fmt.Sscanf(sc.Text(), "CTRL_READY %s", &addr); n == 1 {
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

// ctrlTruth is the parent-side ground truth one round's recovery is
// judged against: which mutations the daemon acknowledged (the HTTP
// response is written only after the terminal transaction is fsynced,
// so an ack is a durability promise) versus merely issued.
type ctrlTruth struct {
	createIssued                map[string]bool
	createAcked                 map[string]bool
	quotaIssued                 map[string][]int // update indices issued, in order
	quotaAcked                  map[string]int   // highest acknowledged update index
	drainIssued, drainAcked     bool             // device 0
	readmitIssued, readmitAcked bool             // device 0
	deleteIssued, deleteAcked   bool             // tenant t2
	// interrupted: a request died on the wire — the armed crash point
	// killed the daemon mid-mutation, which is the event under test.
	interrupted bool
}

func newCtrlTruth() *ctrlTruth {
	return &ctrlTruth{
		createIssued: make(map[string]bool),
		createAcked:  make(map[string]bool),
		quotaIssued:  make(map[string][]int),
		quotaAcked:   make(map[string]int),
	}
}

// ctrlScenarios is the schedule rounds cycle through. The final
// scenario restarts with resume disabled so the crash's pending ops
// surface as stuck and must be cleaned over REST.
var ctrlScenarios = []struct {
	name     string
	point    string
	noResume bool
}{
	{name: "mid-op-step crash", point: string(faultinject.PointCtrlOpStep)},
	{name: "pre-fsync crash", point: string(faultinject.PointStorePreSync)},
	{name: "post-fsync crash", point: string(faultinject.PointStorePostSync)},
	{name: "mid-compaction crash", point: string(faultinject.PointStoreCompact)},
	{name: "stuck ops + REST cleanup", point: string(faultinject.PointCtrlOpStep), noResume: true},
}

// runCtrlTorture executes rounds control-plane torture rounds and
// reports failures. Each round gets a fresh store directory; the
// scenario schedule and every randomized choice derive from the seed.
func runCtrlTorture(seed int64, rounds int, timeout time.Duration) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp("", "gvrt-ctrl-torture-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	rng := sim.NewRNG(seed)
	fmt.Printf("=== gvrt-chaos control-plane torture: seed %d, %d rounds ===\n", seed, rounds)
	failures, interrupted := 0, 0
	for r := 0; r < rounds; r++ {
		sc := ctrlScenarios[r%len(ctrlScenarios)]
		// The mutation script issues ~15 operations (~42 step boundaries,
		// ~42 commits after ~3 boot commits); pick an occurrence that
		// lands inside it.
		var nth uint64
		switch sc.point {
		case string(faultinject.PointStoreCompact):
			// Two crash points per compaction: 1 = snapshot durable but
			// not renamed, 2 = renamed but WAL not truncated.
			nth = uint64(1 + rng.Intn(2))
		case string(faultinject.PointCtrlOpStep):
			nth = uint64(1 + rng.Intn(36))
		default:
			nth = uint64(4 + rng.Intn(36))
		}
		dir := filepath.Join(root, fmt.Sprintf("round%d", r))
		label := fmt.Sprintf("%s (occurrence %d)", sc.name, nth)
		hit, err := ctrlRound(exe, dir, sc.point, nth, sc.noResume, timeout)
		if hit {
			interrupted++
		}
		if err != nil {
			fmt.Printf("round %d [%s]: FAIL: %v\n", r, label, err)
			failures++
		} else {
			fmt.Printf("round %d [%s]: ok\n", r, label)
		}
	}
	if interrupted == 0 && failures == 0 {
		fmt.Printf("verdict vacuous: no round's crash point interrupted a mutation; nothing was verified\n")
		failures++
	}
	if failures > 0 {
		fmt.Printf("control-plane torture: %d/%d rounds FAILED\n", failures, rounds)
		fmt.Printf("reproduce: gvrt-chaos -ctrlplane -seed %d (or GVRT_CHAOS_SEED=%d)\n", seed, seed)
		return 1
	}
	fmt.Printf("control-plane torture: all %d rounds survived; every mutation fully applied or fully rolled back\n", rounds)
	return 0
}

// ctrlRound runs one crash → recover → audit cycle. It reports whether
// the crash actually interrupted a mutation (the interesting case) and
// any verdict violation.
func ctrlRound(exe, dir, point string, nth uint64, noResume bool, timeout time.Duration) (bool, error) {
	victim, err := startCtrlChild(exe, ctrlChildOpts{dir: dir, point: point, nth: nth}, timeout)
	if err != nil {
		return false, fmt.Errorf("starting victim daemon: %v", err)
	}
	defer victim.kill()

	tr := newCtrlTruth()
	if err := runCtrlScript("http://"+victim.addr, tr); err != nil {
		return tr.interrupted, fmt.Errorf("mutation script: %v", err)
	}
	if tr.interrupted {
		victim.awaitExit(timeout) // the armed point killed it; reap
	} else {
		victim.kill() // point never fired; a hard kill after full ack
	}

	// Recovery: a fresh daemon over the same directory, nothing armed.
	doctor, err := startCtrlChild(exe, ctrlChildOpts{dir: dir, noResume: noResume}, timeout)
	if err != nil {
		return tr.interrupted, fmt.Errorf("starting recovery daemon: %v", err)
	}
	defer doctor.kill()
	if err := ctrlVerify("http://"+doctor.addr, tr, noResume); err != nil {
		return tr.interrupted, err
	}
	return tr.interrupted, nil
}

// runCtrlScript drives the round's deterministic mutation script
// against the victim, recording which mutations were acknowledged.
// A transport error means the armed crash point killed the daemon
// mid-request: the script stops and the round moves on to recovery.
// A live daemon answering with an unexpected status is a verdict
// failure, not a crash.
func runCtrlScript(base string, tr *ctrlTruth) error {
	client := &http.Client{Timeout: 10 * time.Second}

	for _, name := range ctrlTenants {
		tr.createIssued[name] = true
		ok, err := ctrlDo(client, tr, "POST", base+"/tenants",
			map[string]string{"name": name}, http.StatusCreated)
		if err != nil || tr.interrupted {
			return err
		}
		if ok {
			tr.createAcked[name] = true
		}
	}
	for k := 1; k <= ctrlQuotaUpdates; k++ {
		t := ctrlTenants[(k-1)%len(ctrlTenants)]
		tr.quotaIssued[t] = append(tr.quotaIssued[t], k)
		ok, err := ctrlDo(client, tr, "PUT", base+"/quotas/"+t,
			map[string]any{"max_sessions": k, "host_bytes": uint64(k) << 20}, http.StatusOK)
		if err != nil || tr.interrupted {
			return err
		}
		if ok {
			tr.quotaAcked[t] = k
		}
	}
	tr.drainIssued = true
	ok, err := ctrlDo(client, tr, "POST", base+"/devices/0/drain", nil, http.StatusOK)
	if err != nil || tr.interrupted {
		return err
	}
	tr.drainAcked = ok
	tr.readmitIssued = true
	ok, err = ctrlDo(client, tr, "POST", base+"/devices/0/readmit", nil, http.StatusOK)
	if err != nil || tr.interrupted {
		return err
	}
	tr.readmitAcked = ok
	tr.deleteIssued = true
	ok, err = ctrlDo(client, tr, "DELETE", base+"/tenants/t2", nil, http.StatusNoContent)
	if err != nil || tr.interrupted {
		return err
	}
	tr.deleteAcked = ok
	return nil
}

// ctrlDo issues one REST mutation. Transport errors set tr.interrupted
// (the daemon died under the request); an unexpected status from a live
// daemon is returned as a hard error.
func ctrlDo(client *http.Client, tr *ctrlTruth, method, url string, body any, want int) (bool, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return false, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		tr.interrupted = true
		return false, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return false, fmt.Errorf("%s %s: status %d (want %d): %s",
			method, url, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return true, nil
}

// ctrlOpsResp mirrors the GET /ops envelope.
type ctrlOpsResp struct {
	Ops      []ctrlplane.Op     `json:"ops"`
	Counters ctrlplane.Counters `json:"counters"`
}

// ctrlVerify audits the recovered store over REST, field by field,
// against the parent's ground truth. With resume enabled the doctor's
// boot must have resolved every pending op; with resume disabled the
// crash's pending ops must be listed stuck and the cleanup endpoint
// must roll back every one.
func ctrlVerify(base string, tr *ctrlTruth, noResume bool) error {
	client := &http.Client{Timeout: 10 * time.Second}

	var ops ctrlOpsResp
	if err := ctrlGet(client, base+"/ops", &ops); err != nil {
		return err
	}
	if noResume {
		for _, op := range ops.Ops {
			if op.State != "stuck" {
				return fmt.Errorf("resume disabled: op %d (%s) in state %q, want stuck", op.ID, op.Kind, op.State)
			}
		}
		if len(ops.Ops) > 0 {
			var cleaned struct {
				Cleaned int    `json:"cleaned"`
				Error   string `json:"error"`
			}
			resp, err := client.Post(base+"/ops/cleanup", "application/json", nil)
			if err != nil {
				return fmt.Errorf("cleanup: %v", err)
			}
			err = json.NewDecoder(resp.Body).Decode(&cleaned)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("cleanup: decoding response: %v", err)
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("cleanup: status %d: %s", resp.StatusCode, cleaned.Error)
			}
			if cleaned.Cleaned != len(ops.Ops) {
				return fmt.Errorf("cleanup rolled back %d ops, want %d", cleaned.Cleaned, len(ops.Ops))
			}
			fmt.Printf("  cleaned %d stuck ops over REST\n", cleaned.Cleaned)
		}
		if err := ctrlGet(client, base+"/ops", &ops); err != nil {
			return err
		}
	}
	if len(ops.Ops) != 0 {
		return fmt.Errorf("%d operations still pending after boot resolution: %+v", len(ops.Ops), ops.Ops)
	}

	// Tenants: all-or-nothing per the ack ledger.
	var tenants []ctrlplane.Tenant
	if err := ctrlGet(client, base+"/tenants", &tenants); err != nil {
		return err
	}
	present := make(map[string]bool)
	for _, t := range tenants {
		present[t.Name] = true
		if !tr.createIssued[t.Name] {
			return fmt.Errorf("tenant %q exists but was never created", t.Name)
		}
	}
	for _, name := range ctrlTenants {
		deleted := name == "t2" && tr.deleteIssued
		switch {
		case name == "t2" && tr.deleteAcked:
			if present[name] {
				return fmt.Errorf("tenant %q present after acknowledged delete", name)
			}
		case tr.createAcked[name] && !deleted:
			if !present[name] {
				return fmt.Errorf("tenant %q missing after acknowledged create", name)
			}
		}
	}

	// Quotas: each surviving record must be internally consistent
	// (HostBytes derived from the same update as MaxSessions — the
	// no-half-applied-quota invariant), must match an update the parent
	// actually issued, and must be at least as new as the last ack.
	var quotas []ctrlplane.Quota
	if err := ctrlGet(client, base+"/quotas", &quotas); err != nil {
		return err
	}
	quotaOf := make(map[string]ctrlplane.Quota)
	for _, q := range quotas {
		quotaOf[q.Tenant] = q
		if q.HostBytes != uint64(q.MaxSessions)<<20 {
			return fmt.Errorf("HALF-APPLIED quota for %q: max_sessions=%d host_bytes=%d (want %d)",
				q.Tenant, q.MaxSessions, q.HostBytes, uint64(q.MaxSessions)<<20)
		}
		issued := false
		for _, k := range tr.quotaIssued[q.Tenant] {
			issued = issued || k == q.MaxSessions
		}
		if !issued {
			return fmt.Errorf("quota for %q has max_sessions=%d, never issued", q.Tenant, q.MaxSessions)
		}
		if q.MaxSessions < tr.quotaAcked[q.Tenant] {
			return fmt.Errorf("quota for %q regressed to update %d, acknowledged %d",
				q.Tenant, q.MaxSessions, tr.quotaAcked[q.Tenant])
		}
	}
	for _, name := range ctrlTenants {
		if tr.quotaAcked[name] == 0 {
			continue
		}
		_, haveQ := quotaOf[name]
		if name == "t2" && tr.deleteIssued {
			// Tenant and quota are deleted in one transaction: they must
			// disappear together or not at all.
			if haveQ != present[name] {
				return fmt.Errorf("tenant t2 torn delete: tenant present=%v quota present=%v", present[name], haveQ)
			}
			continue
		}
		if !haveQ {
			return fmt.Errorf("quota for %q missing after acknowledged update %d", name, tr.quotaAcked[name])
		}
	}

	// Devices: after boot resolution no device may be stranded
	// "draining", and acknowledged transitions must hold.
	var devs []ctrlplane.DeviceRec
	if err := ctrlGet(client, base+"/devices", &devs); err != nil {
		return err
	}
	state := make(map[int]string)
	for _, d := range devs {
		state[d.ID] = d.State
		if d.State != "active" && d.State != "drained" {
			return fmt.Errorf("device %d stranded in state %q after boot resolution", d.ID, d.State)
		}
	}
	if len(devs) != 2 {
		return fmt.Errorf("store lists %d devices, want 2", len(devs))
	}
	if state[1] != "active" {
		return fmt.Errorf("untouched device 1 in state %q, want active", state[1])
	}
	switch {
	case tr.readmitAcked:
		if state[0] != "active" {
			return fmt.Errorf("device 0 in state %q after acknowledged readmit", state[0])
		}
	case tr.drainAcked && !tr.readmitIssued:
		if state[0] != "drained" {
			return fmt.Errorf("device 0 in state %q after acknowledged drain", state[0])
		}
	}

	// The recovered daemon must report itself ready.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// ctrlGet fetches a JSON resource, failing on any non-200 answer.
func ctrlGet(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: decoding: %v", url, err)
	}
	return nil
}
