// Crash-torture mode: a journal-backed daemon child runs a data-checked
// workload over TCP and is SIGKILLed at an armed journal crash point
// (pre-fsync, post-fsync, mid-compaction). A fresh child then recovers
// the journal directory and every session whose launches were
// acknowledged must resume with its data reflecting every acknowledged
// kernel — plus at most one more, for a commit that became durable just
// before the crash ate its acknowledgement. A torn-tail scenario appends
// garbage to the journal between kill and restart to prove recovery
// truncates it.
//
//	gvrt-chaos -torture                      # default 8 rounds
//	GVRT_CHAOS_SEED=7 gvrt-chaos -torture    # replay a seeded schedule
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// tortureSession is the parent-side record of one workload session: the
// ground truth recovery is judged against.
type tortureSession struct {
	id    int64
	ptr   api.DevPtr
	seed  byte
	wrote bool // the seed MemcpyHD was acknowledged
	acked int  // launches the daemon acknowledged
	err   error
	// client stays open until the victim daemon is dead (closeClients).
	client *frontend.Client
}

// tortureMode SIGKILLs a journal-backed daemon at its journal's crash
// points and requires every committed session to recover intact.
var tortureMode = mode{
	name: "crash", flag: "-torture", rounds: 8,
	survived: "every committed session recovered intact",
	scenarios: []scenario{
		// The first two commits can land before any acknowledgement
		// reaches a client; a crash there verifies nothing.
		{name: "pre-fsync crash", point: faultinject.PointJournalPreSync, first: 3},
		{name: "post-fsync crash", point: faultinject.PointJournalPostSync, first: 3},
		// Two crash points per compaction: odd = temp written but not
		// renamed (old state must recover), even = renamed but journal
		// not truncated (new state must recover, the fence makes stale
		// records no-ops). The first compaction runs during session
		// setup, before any launch is acknowledged; draw from the second.
		{name: "mid-compaction crash", point: faultinject.PointJournalCompact, first: 3, span: 2},
		{name: "kill + torn tail", torn: true},
	},
	round: tortureRound,
}

// tortureRound runs one crash → recover → verify cycle.
func tortureRound(r *round) (bool, error) {
	victim, err := r.spawn(childOpts{Journal: r.dir, Point: r.point, Nth: r.nth})
	if err != nil {
		return false, fmt.Errorf("starting victim daemon: %v", err)
	}
	defer victim.kill()

	recs := runWorkload(victim.addr, r.rng, r.sessions, r.launches)
	err = r.crashed(victim)
	closeClients(recs)
	if err != nil {
		return false, err
	}

	if r.torn {
		// A torn write: garbage bytes where the next record would go.
		garbage := make([]byte, 1+r.rng.Intn(200))
		for i := range garbage {
			garbage[i] = byte(r.rng.Intn(256))
		}
		f, err := os.OpenFile(filepath.Join(r.dir, "journal.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return false, fmt.Errorf("injecting torn tail: %v", err)
		}
		f.Write(garbage)
		f.Close()
	}

	// Recovery: a fresh daemon over the same directory, nothing armed.
	doctor, err := r.spawn(childOpts{Journal: r.dir})
	if err != nil {
		return false, fmt.Errorf("starting recovery daemon: %v", err)
	}
	defer doctor.kill()
	return verifyAll(doctor.addr, recs, r.point == "")
}

// closeClients drops every workload client once the victim daemon is
// dead: Close then only frees the socket, whereas to a live daemon it is
// an orderly context release that retires the session from the journal —
// the opposite of what a crash test wants.
func closeClients(recs []*tortureSession) {
	for _, s := range recs {
		if s.client != nil {
			s.client.Close()
		}
	}
}

// verifyAll checks every session on the daemon at addr (verifySession)
// and reports whether any had a launch acknowledged. A session that died
// before learning its ID has nothing to judge recovery against — but a
// skip is not a pass, so the verdict fails if every session skipped.
func verifyAll(addr string, recs []*tortureSession, exact bool) (acked bool, err error) {
	verified := 0
	for i, s := range recs {
		if s.id == 0 {
			fmt.Printf("  skip: session %d never learned its ID (%v)\n", i, s.err)
			continue
		}
		if err := verifySession(addr, s, exact); err != nil {
			return false, fmt.Errorf("session %d (id %d, %d acked): %v", i, s.id, s.acked, err)
		}
		verified++
		acked = acked || s.acked > 0
	}
	if verified == 0 {
		return false, fmt.Errorf("verdict vacuous: all %d sessions skipped on setup errors; nothing was verified", len(recs))
	}
	return acked, nil
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
			if s.err = c.RegisterFatBinary(chaosBinary()); s.err != nil {
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
	if err := c.RegisterFatBinary(chaosBinary()); err != nil {
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
