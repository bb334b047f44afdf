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
//     gvrt-chaos -failover -failover-rounds 3  # CI smoke
//     GVRT_CHAOS_SEED=7 gvrt-chaos -failover   # replay a seeded schedule
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/obs"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// failoverSessionBase keeps the target's locally-created context IDs
// (its serving connections) far above the source's, so adopted sessions
// keep their original IDs without collision.
const failoverSessionBase = 1 << 20

// failoverScenarios is the kill schedule rounds cycle through. Exactly
// one of srcPoint/dstPoint is armed per scenario.
var failoverScenarios = []struct {
	name     string
	srcPoint string // crash point armed on the source child
	dstPoint string // crash point armed on the target child
}{
	{name: "source SIGKILL mid-launch, journal promotion", srcPoint: string(faultinject.PointJournalPreSync)},
	{name: "source SIGKILL mid-transfer, resumable retry", srcPoint: string(faultinject.PointMigrateTransfer)},
	{name: "target SIGKILL mid-import, boot abort + retry", dstPoint: string(faultinject.PointMigrateImport)},
}

// runFailover executes rounds failover-torture rounds and reports
// failures. Every randomized choice derives from the seed.
func runFailover(seed int64, rounds, sessions, launches int, timeout time.Duration) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp("", "gvrt-failover-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvrt-chaos: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	rng := sim.NewRNG(seed)
	fmt.Printf("=== gvrt-chaos failover torture: seed %d, %d rounds ===\n", seed, rounds)
	failures := 0
	for r := 0; r < rounds; r++ {
		sc := failoverScenarios[r%len(failoverScenarios)]
		var nth uint64
		if sc.srcPoint == string(faultinject.PointJournalPreSync) {
			nth = uint64(3 + rng.Intn(4*launches))
		} else {
			// Hello is frame 1 and every session ships at least three
			// frames (hello, one or more chunks, commit), so [1,3] always
			// lands the crash inside the first session's transfer.
			nth = uint64(1 + rng.Intn(3))
		}
		label := fmt.Sprintf("%s (occurrence %d)", sc.name, nth)
		if err := failoverRound(exe, root, r, sc.srcPoint, sc.dstPoint, nth, rng, sessions, launches, timeout); err != nil {
			fmt.Printf("round %d [%s]: FAIL: %v\n", r, label, err)
			failures++
		} else {
			fmt.Printf("round %d [%s]: ok\n", r, label)
		}
	}
	if failures > 0 {
		fmt.Printf("failover torture: %d/%d rounds FAILED\n", failures, rounds)
		fmt.Printf("reproduce: gvrt-chaos -failover -seed %d (or GVRT_CHAOS_SEED=%d)\n", seed, seed)
		return 1
	}
	fmt.Printf("failover torture: all %d rounds survived; every acked kernel observable after takeover\n", rounds)
	return 0
}

// failoverRound runs one kill → take over → verify cycle with a fresh
// source/target pair over fresh directories.
func failoverRound(exe, root string, r int, srcPoint, dstPoint string, nth uint64,
	rng *sim.RNG, sessions, launches int, timeout time.Duration) error {
	srcDir := filepath.Join(root, fmt.Sprintf("round%d-src", r))
	dstDir := filepath.Join(root, fmt.Sprintf("round%d-dst", r))

	// The armed victim always carries a flight recorder: every scenario
	// verdict now includes "the SIGKILL'd node left a parseable black
	// box" (the crash handler dumps it before the process dies).
	dstOpts := childOpts{dir: dstDir, node: "dst", base: failoverSessionBase, migDir: dstDir}
	if dstPoint != "" {
		dstOpts.point, dstOpts.nth = dstPoint, nth
		dstOpts.flight = dstDir
	}
	target, err := startChild(exe, dstOpts, timeout)
	if err != nil {
		return fmt.Errorf("starting target daemon: %v", err)
	}
	defer target.kill()

	srcOpts := childOpts{dir: srcDir, node: "src"}
	if srcPoint != "" {
		srcOpts.point, srcOpts.nth = srcPoint, nth
		srcOpts.flight = srcDir
	}
	source, err := startChild(exe, srcOpts, timeout)
	if err != nil {
		return fmt.Errorf("starting source daemon: %v", err)
	}
	defer source.kill()

	recs := runWorkload(source.addr, rng, sessions, launches)

	if srcPoint == string(faultinject.PointJournalPreSync) {
		if err := failoverPromotion(srcDir, source, target, recs, timeout); err != nil {
			return err
		}
		return verifyFlightDump(srcDir, "src", 1)
	}

	// Migration scenarios: nothing was armed on the workload's path, so
	// the sessions must have completed cleanly — a setup failure here is
	// a real failure, never a silent skip.
	for i, s := range recs {
		if s.err != nil || s.id == 0 {
			return fmt.Errorf("session %d failed before migration (id %d): %v", i, s.id, s.err)
		}
		if s.acked != launches {
			return fmt.Errorf("session %d acked %d of %d launches with no fault armed", i, s.acked, launches)
		}
	}
	if srcPoint != "" {
		if err := failoverMidTransfer(exe, srcDir, source, target, recs, timeout); err != nil {
			return err
		}
		return verifyFlightDump(srcDir, "src", 1)
	}
	if err := failoverMidImport(exe, dstDir, target, recs, timeout); err != nil {
		return err
	}
	// The target dies on its first migration frames; its call count at
	// crash time is legitimately tiny, so only the parse is asserted.
	return verifyFlightDump(dstDir, "dst", 0)
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
func failoverPromotion(srcDir string, source, target *child, recs []*tortureSession, timeout time.Duration) error {
	source.awaitExit(timeout)
	for _, s := range recs {
		if s.client != nil {
			s.client.Close() // source is dead; this only frees the socket
		}
	}

	conn, err := transport.Dial(target.addr)
	if err != nil {
		return fmt.Errorf("dialing target: %v", err)
	}
	c := frontend.Connect(conn)
	adopted, err := c.Adopt(srcDir)
	c.Close()
	if err != nil {
		return fmt.Errorf("promoting from journal dir: %v", err)
	}

	verified, skipped := 0, 0
	for i, s := range recs {
		if s.id == 0 {
			// Crash before the session learned its ID: no durability
			// promise to judge — but a skip is not a pass.
			skipped++
			fmt.Printf("  skip: session %d never learned its ID (%v)\n", i, s.err)
			continue
		}
		if err := verifySession(target.addr, s, false); err != nil {
			return fmt.Errorf("session %d (id %d, %d acked) after promotion: %v", i, s.id, s.acked, err)
		}
		verified++
	}
	if verified == 0 {
		return fmt.Errorf("verdict vacuous: all %d sessions skipped on setup errors; nothing was verified (adopted %d)",
			skipped, adopted)
	}
	fmt.Printf("  promoted %d journal sessions, verified %d on the new owner\n", adopted, verified)
	return nil
}

// failoverMidTransfer drives migrations into the source's armed
// transfer-crash, then proves the retry from a recovered source resumes
// from the target's spool and the deposed source fences late writes.
func failoverMidTransfer(exe, srcDir string, source, target *child, recs []*tortureSession, timeout time.Duration) error {
	migrated := make(map[int64]bool)
	crashSeen := false
	for _, s := range recs {
		if err := s.client.Migrate(target.addr); err != nil {
			crashSeen = true // the armed crash killed the source mid-frame
			break
		}
		migrated[s.id] = true
	}
	if !crashSeen {
		return fmt.Errorf("source survived all %d migrations with a transfer crash armed", len(recs))
	}
	source.awaitExit(timeout)
	for _, s := range recs {
		if s.client != nil {
			s.client.Close()
		}
	}

	doctor, err := startChild(exe, childOpts{dir: srcDir, node: "src"}, timeout)
	if err != nil {
		return fmt.Errorf("starting recovery source: %v", err)
	}
	defer doctor.kill()
	for i, s := range recs {
		if migrated[s.id] {
			continue
		}
		conn, err := transport.Dial(doctor.addr)
		if err != nil {
			return fmt.Errorf("dialing recovery source: %v", err)
		}
		c := frontend.Connect(conn)
		err = c.Resume(s.id)
		if err == nil {
			// Migration checkpoints first, which replays the session's
			// pending kernels — they need their binary on this connection.
			err = c.RegisterFatBinary(tortureBinary())
		} else {
			err = fmt.Errorf("resume on recovery source: %v", err)
		}
		if err == nil {
			if err = c.Migrate(target.addr); err != nil {
				err = fmt.Errorf("migration retry: %v", err)
			}
		}
		if err == nil {
			err = fenceCheck(c, s)
		}
		c.Close()
		if err != nil {
			return fmt.Errorf("session %d (id %d): %v", i, s.id, err)
		}
	}
	return failoverVerify(target.addr, recs)
}

// failoverMidImport drives the first migration into the target's armed
// import-crash, restarts the target (whose boot must abort the pending
// import record), retries every migration against it, and requires the
// deposed source to fence late writes.
func failoverMidImport(exe, dstDir string, target *child, recs []*tortureSession, timeout time.Duration) error {
	first := recs[0]
	if err := first.client.Migrate(target.addr); err == nil {
		return errors.New("migration succeeded though the target was armed to crash mid-import")
	}
	target.awaitExit(timeout)
	stats, err := first.client.Stats()
	if err != nil {
		return fmt.Errorf("source stats after aborted migration: %v", err)
	}
	if stats.MigrationsAborted == 0 {
		return errors.New("source counted no aborted migrations after the target died mid-import")
	}

	doctor, err := startChild(exe, childOpts{dir: dstDir, node: "dst", base: failoverSessionBase, migDir: dstDir}, timeout)
	if err != nil {
		return fmt.Errorf("restarting target: %v", err)
	}
	defer doctor.kill()
	if ops := failover.PendingOps(dstDir); len(ops) != 0 {
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
	for _, s := range recs {
		s.client.Close()
	}
	return failoverVerify(doctor.addr, recs)
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

// failoverVerify checks every session on the new owner. Migration
// checkpoints before export, so the count is exact: seed + acked, with
// a double-executed kernel as detectable as a lost one.
func failoverVerify(addr string, recs []*tortureSession) error {
	verified := 0
	for i, s := range recs {
		if err := verifySession(addr, s, true); err != nil {
			return fmt.Errorf("session %d (id %d, %d acked) after takeover: %v", i, s.id, s.acked, err)
		}
		verified++
	}
	if verified == 0 {
		return errors.New("verdict vacuous: no sessions were verified")
	}
	return nil
}
