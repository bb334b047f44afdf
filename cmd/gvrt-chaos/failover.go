// Failover-torture mode: two journal-backed daemon children — a source
// node and a failover target — run under seeded SIGKILLs at the
// failover plane's crash points, and the verdict requires every kernel
// the source acknowledged before its death to be observable on the new
// owner, with no double executions and the deposed owner's late writes
// rejected with ErrFenced. Scenarios cycle:
//
//   - source SIGKILLed mid-launch (an armed journal crash point): the
//     target promotes every committed session straight from the dead
//     node's journal directory and each one must resume intact;
//
//   - source SIGKILLed mid-transfer (armed migration-transfer crash): a
//     recovered source retries the migration and the target's chunk
//     spool resumes the transfer instead of restarting it;
//
//   - target SIGKILLed mid-import (armed migration-import crash): the
//     restarted target aborts the pending import record at boot, the
//     retry succeeds, and the deposed source fences a late write.
//
//     gvrt-chaos -failover                     # default 6 rounds
//     GVRT_CHAOS_SEED=7 gvrt-chaos -failover   # replay a seeded schedule
package main

import (
	"errors"
	"fmt"
	"path/filepath"

	"gvrt/internal/api"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/obs"
	"gvrt/internal/transport"
)

// failoverSessionBase keeps the target's locally-created context IDs
// (its serving connections) far above the source's, so adopted sessions
// keep their original IDs without collision.
const failoverSessionBase = 1 << 20

// failoverTorture SIGKILLs a source/target node pair at the failover
// plane's crash points and requires every acked kernel to be observable
// on the new owner.
var failoverTorture = mode{
	name: "failover", flag: "-failover", rounds: 6,
	survived: "every acked kernel observable after takeover",
	scenarios: []scenario{
		{name: "source SIGKILL mid-launch, journal promotion", point: faultinject.PointJournalPreSync, first: 3},
		// Hello is frame 1 and every session ships at least three frames
		// (hello, one or more chunks, commit), so [1,3] always lands the
		// crash inside the first session's transfer.
		{name: "source SIGKILL mid-transfer, resumable retry", point: faultinject.PointMigrateTransfer, first: 1, span: 3},
		{name: "target SIGKILL mid-import, boot abort + retry", point: faultinject.PointMigrateImport, first: 1, span: 3, target: true},
	},
	round: failoverRound,
}

// failoverRound runs one kill → take over → verify cycle with a fresh
// source/target pair over fresh directories.
func failoverRound(r *round) (bool, error) {
	src := childOpts{Journal: filepath.Join(r.dir, "src"), Node: "src"}
	dst := childOpts{Journal: filepath.Join(r.dir, "dst"), Node: "dst", Base: failoverSessionBase}
	dst.MigDir = dst.Journal
	// The armed victim always carries a flight recorder: every verdict
	// includes "the SIGKILL'd node left a parseable black box" (the crash
	// handler dumps it before the process dies).
	armedSrc, armedDst := src, dst
	victim := &armedSrc
	if r.target {
		victim = &armedDst
	}
	victim.Point, victim.Nth, victim.Flight = r.point, r.nth, victim.Journal

	target, err := r.spawn(armedDst)
	if err != nil {
		return false, fmt.Errorf("starting target daemon: %v", err)
	}
	defer target.kill()
	source, err := r.spawn(armedSrc)
	if err != nil {
		return false, fmt.Errorf("starting source daemon: %v", err)
	}
	defer source.kill()

	recs := runWorkload(source.addr, r.rng, r.sessions, r.launches)
	acked := true
	if r.point == faultinject.PointJournalPreSync {
		acked, err = failoverPromotion(r, src.Journal, source, target, recs)
	} else {
		// Migration scenarios: nothing was armed on the workload's path,
		// so the sessions must have completed cleanly — a setup failure
		// here is a real failure, never a silent skip.
		for i, s := range recs {
			if s.err != nil || s.acked != r.launches {
				return false, fmt.Errorf("session %d (id %d) acked %d of %d launches with no fault armed: %v",
					i, s.id, s.acked, r.launches, s.err)
			}
		}
		if r.target {
			err = failoverMidImport(r, dst, target, recs)
		} else {
			err = failoverMidTransfer(r, src, source, target, recs)
		}
	}
	if err != nil {
		return false, err
	}
	// A target dies on its first migration frames; its call count at
	// crash time is legitimately tiny, so only the parse is asserted.
	minCalls := int64(1)
	if r.target {
		minCalls = 0
	}
	return acked, verifyFlightDump(victim.Journal, victim.Node, minCalls)
}

// verifyFlightDump is the flight-recorder half of a round's verdict:
// the armed crash must have left a schema-valid black box for the
// killed node, with at least minCalls served at crash time.
func verifyFlightDump(dir, node string, minCalls int64) error {
	path := filepath.Join(dir, "flight-"+node+".json")
	d, err := obs.ReadFlightDump(path)
	if err != nil {
		return fmt.Errorf("flight post-mortem: %v", err)
	}
	if d.Node != node {
		return fmt.Errorf("flight dump names node %q, want %q", d.Node, node)
	}
	if d.Reason != "crash-point" {
		return fmt.Errorf("flight dump reason %q, want crash-point", d.Reason)
	}
	var calls int64
	if d.Stats != nil {
		calls = d.Stats.CallsServed
	}
	if calls < minCalls {
		return fmt.Errorf("flight dump vacuous: %d calls served at crash time, want >= %d",
			calls, minCalls)
	}
	fmt.Printf("  flight post-mortem: %s black box ok (%d ring records, %d calls at crash)\n",
		node, len(d.Records), calls)
	return nil
}

// failoverPromotion is the mid-launch scenario's takeover half: the
// source died at an armed journal crash point; the target adopts every
// committed session from the dead node's journal directory and each one
// must verify there.
func failoverPromotion(r *round, srcDir string, source, target *child, recs []*tortureSession) (bool, error) {
	err := r.crashed(source)
	closeClients(recs)
	if err != nil {
		return false, err
	}
	conn, err := transport.Dial(target.addr)
	if err != nil {
		return false, fmt.Errorf("dialing target: %v", err)
	}
	c := frontend.Connect(conn)
	adopted, err := c.Adopt(srcDir)
	c.Close()
	if err != nil {
		return false, fmt.Errorf("promoting from journal dir: %v", err)
	}
	fmt.Printf("  promoted %d journal sessions to the new owner\n", adopted)
	return verifyAll(target.addr, recs, false)
}

// failoverMidTransfer drives migrations into the source's armed
// transfer-crash, then proves the retry from a recovered source resumes
// from the target's spool and the deposed source fences late writes.
func failoverMidTransfer(r *round, src childOpts, source, target *child, recs []*tortureSession) error {
	migrated := make(map[int64]bool)
	for _, s := range recs {
		if s.client.Migrate(target.addr) != nil {
			break // the armed crash killed the source mid-frame
		}
		migrated[s.id] = true
	}
	err := r.crashed(source)
	closeClients(recs)
	if err != nil {
		return err
	}

	doctor, err := r.spawn(src)
	if err != nil {
		return fmt.Errorf("starting recovery source: %v", err)
	}
	defer doctor.kill()
	for i, s := range recs {
		if migrated[s.id] {
			continue
		}
		if err := retryMigration(doctor.addr, target.addr, s); err != nil {
			return fmt.Errorf("session %d (id %d): %v", i, s.id, err)
		}
	}
	// Migration checkpoints before export, so the count is exact: a
	// double-executed kernel is as detectable as a lost one.
	_, err = verifyAll(target.addr, recs, true)
	return err
}

// retryMigration resumes s on the recovered source at addr, migrates it
// to the target, and requires the deposed source to fence a late write.
func retryMigration(addr, target string, s *tortureSession) error {
	conn, err := transport.Dial(addr)
	if err != nil {
		return fmt.Errorf("dialing recovery source: %v", err)
	}
	c := frontend.Connect(conn)
	defer c.Close()
	if err := c.Resume(s.id); err != nil {
		return fmt.Errorf("resume on recovery source: %v", err)
	}
	// Migration checkpoints first, which replays the session's pending
	// kernels — they need their binary on this connection.
	if err := c.RegisterFatBinary(chaosBinary()); err != nil {
		return err
	}
	if err := c.Migrate(target); err != nil {
		return fmt.Errorf("migration retry: %v", err)
	}
	return fenceCheck(c, s)
}

// failoverMidImport drives the first migration into the target's armed
// import-crash, restarts the target (whose boot must abort the pending
// import record), retries every migration against it, and requires the
// deposed source to fence late writes.
func failoverMidImport(r *round, dst childOpts, target *child, recs []*tortureSession) error {
	first := recs[0]
	_ = first.client.Migrate(target.addr) // the armed crash kills the target mid-import
	if err := r.crashed(target); err != nil {
		return err
	}
	stats, err := first.client.Stats()
	if err != nil {
		return fmt.Errorf("source stats after aborted migration: %v", err)
	}
	if stats.MigrationsAborted == 0 {
		return errors.New("source counted no aborted migrations after the target died mid-import")
	}

	doctor, err := r.spawn(dst)
	if err != nil {
		return fmt.Errorf("restarting target: %v", err)
	}
	defer doctor.kill()
	if ops := failover.PendingOps(dst.MigDir); len(ops) != 0 {
		return fmt.Errorf("pending import records survived the target's boot abort: %+v", ops)
	}
	for i, s := range recs {
		if err := s.client.Migrate(doctor.addr); err != nil {
			return fmt.Errorf("session %d (id %d) migration retry after target restart: %v", i, s.id, err)
		}
		if err := fenceCheck(s.client, s); err != nil {
			return fmt.Errorf("session %d (id %d): %v", i, s.id, err)
		}
	}
	closeClients(recs)
	_, err = verifyAll(doctor.addr, recs, true) // exact, as after any migration
	return err
}

// fenceCheck issues a late write on a connection whose session just
// migrated away: the deposed owner must reject it with ErrFenced — the
// write must never execute, no matter how soon after takeover it lands.
func fenceCheck(c *frontend.Client, s *tortureSession) error {
	err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{s.ptr}, Scalars: []uint64{4}})
	if api.Code(err) != api.ErrFenced {
		return fmt.Errorf("late write on deposed owner = %v, want ErrFenced", err)
	}
	return nil
}
