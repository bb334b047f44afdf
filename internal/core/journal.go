package core

import (
	"fmt"
	"slices"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/trace"
)

// This file connects the runtime to the crash-consistent checkpoint
// journal (internal/ckptlog). The journal shadows the durable state of
// §4.6 — the page table + swap area checkpoint plus the replay log — on
// disk, so the checkpoint survives not just device failures but daemon
// kills: RecoverFromJournal (session.go) rebuilds every committed
// session as an orphan a reconnecting client can Resume, with the
// kernels committed since its last checkpoint replayed on first use.
//
// Consistency invariant: for every context the journal mirrors a pair
// (entries E, pending kernels P) such that replaying P over E yields
// the context's current durable state. Entry mutations that would break
// the invariant — a host write, free, or read-back of a buffer some
// logged kernel references — are preceded by a checkpoint (flush +
// atomic full-image record + log reset), so E jumps forward and P
// empties in one durable step. Swap-outs intentionally do NOT update E:
// the journal keeps pre-kernel data plus P, and recovery recomputes.

// AttachJournal installs j as the runtime's durability journal: the
// memory manager's mutations, kernel commits and checkpoints are
// shadowed to it from now on. Live contexts the journal does not hold —
// it is being enabled over a running node — are checkpoint-flushed and
// seeded into it; the orphans RecoverFromJournal installed came out of
// it. Call it at boot, after RecoverFromJournal, before serving
// connections.
func (rt *Runtime) AttachJournal(j *ckptlog.Journal) error {
	rt.mu.Lock()
	rt.journal = j
	ctxs := make([]*Context, 0, len(rt.ctxs))
	for _, c := range rt.ctxs {
		ctxs = append(ctxs, c)
	}
	rt.mu.Unlock()
	rt.mm.SetObserver(j)

	for _, ctx := range ctxs {
		var err error
		ctx.mu.Lock()
		if !j.HasContext(ctx.id) {
			// checkpoint flushes device-dirty entries first, so the seeded
			// image can never capture stale swap data, and — with
			// rt.journal now set — writes the image record itself.
			err = rt.checkpoint(ctx)
		}
		ctx.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: seeding journal with ctx %d: %w", ctx.id, err)
		}
	}
	return nil
}

// journalCommit write-ahead-logs an acknowledged kernel launch. It must
// succeed before the launch is acknowledged: on error the caller
// returns it to the client instead of a success, so no client ever
// believes in a kernel a crash could lose.
func (rt *Runtime) journalCommit(ctx *Context, call api.LaunchCall) error {
	if rt.journal == nil {
		return nil
	}
	// Commit cost is real wall time (fsync), not model time — recorded
	// in its own histogram so operators see the durability tax.
	wallStart := time.Now()
	err := rt.journal.KernelCommitted(ctx.id, call)
	rt.timings.JournalCommitWall.Observe(time.Since(wallStart).Nanoseconds())
	if err != nil {
		rt.eventf(trace.KindNote, ctx.id, -1, "kernel commit not durable, refusing ack: %v", err)
		return err
	}
	return nil
}

// journalSnapshot records a context's full, flushed state as one atomic
// image record, resetting its pending-kernel list to what the replay log
// still holds (nothing, unless a recovery vacated in mid-replay). Callers
// hold the context's service lock and guarantee no entry is device-dirty
// (a checkpoint or full swap-out just completed).
func (rt *Runtime) journalSnapshot(ctx *Context) error {
	if rt.journal == nil {
		return nil
	}
	img, err := rt.mm.ExportContext(ctx.space)
	if err != nil {
		return fmt.Errorf("core: exporting ctx %d for journal: %w", ctx.id, err)
	}
	return rt.journal.SnapshotContext(img, slices.Clone(ctx.replay))
}

// journalSnapshotNoted is journalSnapshot for call sites that cannot
// propagate an error (swap-out of a victim context); a failure is a
// note, not fatal — the journal keeps the context's previous image
// plus its pending kernels, which still recovers to the correct state.
func (rt *Runtime) journalSnapshotNoted(ctx *Context) {
	if err := rt.journalSnapshot(ctx); err != nil {
		rt.eventf(trace.KindNote, ctx.id, -1, "journal snapshot failed: %v", err)
	}
}
