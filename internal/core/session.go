package core

import (
	"fmt"
	"slices"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/trace"
)

// This file is how a session outlives the node it ran on (§4.6: the
// paper combines its runtime with BLCR "to enable these mechanisms also
// after a full restart of a node"; gvrt's page table + swap area are
// already the checkpoint, and ckptlog keeps them on disk). Whatever
// brought a session's durable form here — this node's own journal at
// boot, a dead peer's journal at promotion, a migration — it is
// installed by adoptImage as an orphan, and a reconnecting application
// thread claims it with ResumeCall using the session ID it obtained
// earlier. Its virtual pointers remain valid and its next kernel launch
// lazily restores device residency.

// adoptImage installs a session's durable form as an orphan a
// reconnecting client can Resume. It is the one place an image supplied
// by a disk or a peer is admitted: page table and swap copies into the
// memory manager (which validates them), the image journaled so it
// survives this node too, then — only once both hold — the orphan
// published with its pending kernels set aside for replay, and, when
// the lease table allows, ownership taken for this node. A refused
// image leaves nothing behind.
func (rt *Runtime) adoptImage(rec *ckptlog.ImageRecord, detail string) error {
	id := rec.Image.CtxID
	if rt.hasSession(id) {
		return api.ErrSessionClaimed
	}
	if err := rt.mm.ImportContext(&rec.Image); err != nil {
		return err
	}
	if j := rt.journal; j != nil {
		if err := j.SnapshotContext(&rec.Image, rec.Pending); err != nil {
			rt.mm.ReleaseContext(id, nil)
			return err
		}
	}
	rt.reserveID(id)
	rt.mu.Lock()
	rt.orphans[id] = slices.Clone(rec.Pending)
	rt.mu.Unlock()
	if t := rt.cfg.Leases; t != nil {
		// Best effort: a dead owner's lapsed (or revoked) lease moves here
		// at epoch+1; after a cooperative migration the source released
		// and this takes it fresh. A still-live source lease (source
		// crashed after commit, before release) is left alone — the
		// resuming client's Claim settles ownership after expiry.
		_, _ = t.Acquire(id, rt.cfg.node())
	}
	rt.event(trace.KindCrossMigration, id, 0, -1, detail)
	return nil
}

// adoptRecovered installs every session a ckptlog.Open recovered and
// reports how many were new. Sessions this node already knows are
// skipped, so a promotion racing a completed migration is idempotent.
func (rt *Runtime) adoptRecovered(rec *ckptlog.Recovered, detail string) (int, error) {
	n := 0
	for _, img := range rec.Images {
		err := rt.adoptImage(&ckptlog.ImageRecord{Image: *img, Pending: rec.Pending[img.CtxID]}, detail)
		if err == api.ErrSessionClaimed {
			continue
		}
		if err != nil {
			return n, fmt.Errorf("core: adopting ctx %d: %w", img.CtxID, err)
		}
		n++
	}
	// Never re-issue any context ID the journal has ever seen — including
	// quarantined and destroyed ones.
	rt.reserveID(rec.MaxCtxID)
	return n, nil
}

// reserveID raises the ID counter to at least id, so newContext never
// issues an ID this runtime has adopted.
func (rt *Runtime) reserveID(id int64) {
	for cur := rt.nextCtx.Load(); cur < id; cur = rt.nextCtx.Load() {
		if rt.nextCtx.CompareAndSwap(cur, id) {
			return
		}
	}
}

// RecoverFromJournal installs the state a ckptlog.Open recovered from
// this node's own journal: every recovered context becomes an unclaimed
// orphan session, its pending kernels kept aside so the first operation
// after a Resume replays them (§4.6's bounded replay, across a daemon
// restart). Call it at boot, before AttachJournal.
func (rt *Runtime) RecoverFromJournal(rec *ckptlog.Recovered) error {
	_, err := rt.adoptRecovered(rec, "recovered from journal")
	return err
}

// AdoptJournalDir recovers every session committed in a dead peer's
// journal directory into this runtime — the operator's promotion step
// (api.AdoptCall). The old owner must be dead or fenced: once its lease
// has lapsed or been revoked, the adoption and the client's Resume claim
// it for this node at epoch+1.
func (rt *Runtime) AdoptJournalDir(dir string) (int, error) {
	j, rec, err := ckptlog.Open(dir, ckptlog.Options{})
	if err != nil {
		return 0, err
	}
	defer j.Close()
	if rec.TornBytes > 0 {
		rt.eventf(trace.KindNote, 0, -1, "journal %s: truncated %d torn tail bytes", dir, rec.TornBytes)
	}
	for _, q := range rec.Quarantined {
		rt.eventf(trace.KindNote, q.CtxID, -1, "journal %s: quarantined %v", dir, q)
	}
	return rt.adoptRecovered(rec, "promoted from journal "+dir)
}

// hasSession reports whether this runtime already knows the session —
// live, orphaned, or claimed.
func (rt *Runtime) hasSession(id int64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, live := rt.ctxs[id]
	_, orphan := rt.orphans[id]
	return live || orphan || rt.claimed[id]
}

// resume re-attaches a fresh context to a persisted session. The
// caller holds ctx.mu. Exactly one connection can win a session:
// concurrent claimants of the same ID serialise on rt.mu, and every
// loser sees the typed ErrSessionClaimed (a session that never existed
// stays ErrInvalidValue).
func (rt *Runtime) resume(ctx *Context, id int64) api.Error {
	if ctx.space.Usage() != 0 {
		// Resume must precede any allocation on this connection.
		return api.ErrInvalidValue
	}
	rt.mu.Lock()
	pending, ok := rt.orphans[id]
	if !ok {
		claimed := rt.claimed[id]
		rt.mu.Unlock()
		if claimed {
			return api.ErrSessionClaimed
		}
		return api.ErrInvalidValue
	}
	if ctx.vgpu.Load() != nil || ctx.inWaiting {
		rt.mu.Unlock()
		return api.ErrInvalidValue
	}
	// Claiming the session means taking its lease; failure (a live owner
	// elsewhere) leaves the orphan unclaimed for a later, valid claimant.
	if err := rt.leaseClaim(ctx, id); err != nil {
		rt.mu.Unlock()
		return api.ErrFenced
	}
	delete(rt.orphans, id)
	rt.claimed[id] = true
	delete(rt.ctxs, ctx.id)
	oldID := ctx.id
	ctx.id = id
	if len(pending) > 0 {
		// The kernels committed since the session's last checkpoint must
		// re-run before their outputs are read; ensureBound and the
		// checkpoint-first guards trigger the replay lazily (§4.6).
		ctx.needsRecovery.Store(true)
	}
	rt.mu.Unlock()
	// Retire the empty pre-resume context from the memory manager (and
	// through it the journal); the session takes the context's lane, and
	// its page table is the one the replay log resolves in. As in
	// newContext, the context is published under the session's ID only
	// once that Space is set, and SetLane runs with no rt.mu held.
	rt.mm.ReleaseContext(oldID, nil)
	ctx.space = rt.mm.SetLane(id, ctx.lane)
	rt.mu.Lock()
	rt.ctxs[id] = ctx
	rt.mu.Unlock()
	for _, call := range pending {
		ctx.recordReplay(call)
	}
	if t := rt.cfg.Leases; t != nil {
		// Likewise retire the pre-resume context's own lease.
		t.Release(oldID, rt.cfg.node())
	}
	rt.eventf(trace.KindNote, id, -1, "resumed (%d pending kernels)", len(pending))
	return api.Success
}

// OrphanSessions lists persisted sessions not yet re-claimed.
func (rt *Runtime) OrphanSessions() []int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ids := make([]int64, 0, len(rt.orphans))
	for id := range rt.orphans {
		ids = append(ids, id)
	}
	return ids
}
