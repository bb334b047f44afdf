package ckptlog

import (
	"os"
	"slices"
	"sync"
	"syscall"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/memmgr"
	"gvrt/internal/wal"
)

// DefaultCompactBytes is the journal growth (bytes appended since the
// last compaction) that triggers an automatic compaction.
const DefaultCompactBytes = 4 << 20

// layout names the journal's files and crash points.
var layout = wal.Layout{
	Name:         "ckptlog",
	Log:          "journal.wal",
	Snapshot:     "snapshot.ckpt",
	Tmp:          "snapshot.tmp",
	HeaderKind:   uint8(RecSnapshotHeader),
	PreSync:      faultinject.PointJournalPreSync,
	PostSync:     faultinject.PointJournalPostSync,
	Compact:      faultinject.PointJournalCompact,
	CompactBytes: DefaultCompactBytes,
}

// Options tunes a Journal.
type Options = wal.Options

// Die is the production OnCrash: SIGKILL the process. No deferred
// function, no flush, no signal handler runs — the closest a process
// can get to losing power at the armed boundary.
func Die() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL cannot be handled
}

// Stats is a snapshot of a journal's counters.
type Stats struct {
	// Records is the number of records appended this run.
	Records int64
	// Syncs is the number of fsync barriers issued.
	Syncs int64
	// Bytes is the number of journal bytes appended this run.
	Bytes int64
	// Compactions counts snapshot compactions completed this run.
	Compactions int64
	// TornBytes is the torn-tail length truncated during recovery.
	TornBytes int64
	// Quarantined counts context images quarantined during recovery.
	Quarantined int64
	// Contexts is the number of contexts currently mirrored.
	Contexts int
}

// mirrorCtx is one context's durable state inside the in-memory mirror.
type mirrorCtx struct {
	nextOff uint64
	entries map[api.DevPtr]memmgr.EntryImage
	pending []api.LaunchCall
}

// Journal is an open checkpoint journal: the durable log plus the
// in-memory mirror of the state its records encode. The mirror is what
// compaction snapshots and what Open returns after recovery — journal
// bytes are written through it, never parsed back during normal
// operation.
//
// A Journal is safe for concurrent use; one mutex serialises appends so
// records land in a total order.
type Journal struct {
	opts Options

	mu          sync.Mutex
	log         *wal.Log
	mirror      map[int64]*mirrorCtx
	quarantined int64
}

// Healthy reports whether the journal can still persist commits: false
// after a persistent write error or Close. The operator plane's
// /healthz readiness probe keys off it.
func (j *Journal) Healthy() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Healthy()
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	ls := j.log.Stats()
	return Stats{
		Records:     ls.Appends,
		Syncs:       ls.Syncs,
		Bytes:       ls.Bytes,
		Compactions: ls.Compactions,
		TornBytes:   ls.TornBytes,
		Quarantined: j.quarantined,
		Contexts:    len(j.mirror),
	}
}

// HasContext reports whether the mirror currently tracks ctxID — used
// by the runtime's journal attach to avoid re-snapshotting state that
// recovery already restored.
func (j *Journal) HasContext(ctxID int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.mirror[ctxID]
	return ok
}

// ctx returns (creating if needed) the mirror state for ctxID.
func (j *Journal) ctx(ctxID int64) *mirrorCtx {
	mc := j.mirror[ctxID]
	if mc == nil {
		mc = &mirrorCtx{entries: make(map[api.DevPtr]memmgr.EntryImage)}
		j.mirror[ctxID] = mc
	}
	return mc
}

// append writes one record. The caller holds j.mu. Mutation records
// ignore the error: a dead log already reported its failure loudly, and
// the next commit record's append refuses the acknowledgement.
func (j *Journal) append(t RecType, ctxID int64, payload []byte) error {
	_, err := j.log.Append(uint8(t), ctxID, payload)
	return err
}

// commit appends a commit record and runs the fsync barrier: when it
// returns nil the record, and every mutation record before it, is
// durable. The caller holds j.mu.
func (j *Journal) commit(t RecType, ctxID int64, payload []byte) error {
	if err := j.append(t, ctxID, payload); err != nil {
		return err
	}
	return j.log.Sync()
}

// maybeCompact runs a compaction when the journal grew past the
// threshold. The caller holds j.mu.
func (j *Journal) maybeCompact() {
	if !j.log.CompactDue() {
		return
	}
	if err := j.compactLocked(); err != nil {
		j.opts.Printf("auto-compaction failed: %v", err)
	}
}

// ContextCreated records a context coming into existence. Not a commit
// point: an empty context that was never synced is not worth recovering.
func (j *Journal) ContextCreated(ctxID int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ctx(ctxID)
	_ = j.append(RecContextCreated, ctxID, nil)
}

// ContextReleased records an orderly context teardown and discards its
// durable state. It is a commit point (synced): after an acknowledged
// exit the session must not resurrect on restart. The method name
// matches memmgr.Observer.
func (j *Journal) ContextReleased(ctxID int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.mirror[ctxID]; !ok {
		return
	}
	delete(j.mirror, ctxID)
	if j.commit(RecContextDestroyed, ctxID, nil) == nil {
		j.maybeCompact()
	}
}

// EntryWritten records one page-table entry's new swap-side state. Not
// individually synced: the next commit record's fsync makes it durable
// (prefix durability). The signature matches memmgr.Observer.
func (j *Journal) EntryWritten(ctxID int64, e memmgr.EntryImage, nextOff uint64) {
	payload, err := wal.EncodeGob(entryRecord{Entry: e, NextOff: nextOff})
	if err != nil {
		j.opts.Printf("entry-written encode failed: %v", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	mc := j.ctx(ctxID)
	mc.entries[e.Virtual] = e
	if nextOff > mc.nextOff {
		mc.nextOff = nextOff
	}
	_ = j.append(RecEntryWritten, ctxID, payload)
}

// EntryFreed records a page-table entry de-allocation. The signature
// matches memmgr.Observer.
func (j *Journal) EntryFreed(ctxID int64, virtual api.DevPtr) {
	payload, err := wal.EncodeGob(freeRecord{Virtual: virtual})
	if err != nil {
		j.opts.Printf("entry-freed encode failed: %v", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if mc := j.mirror[ctxID]; mc != nil {
		delete(mc.entries, virtual)
	}
	_ = j.append(RecEntryFreed, ctxID, payload)
}

// KernelCommitted records an acknowledged kernel launch. It is THE
// write-ahead commit point: the record (and by fsync ordering every
// mutation record before it) is durable before this returns, so the
// runtime may acknowledge the launch to the client knowing a crash
// cannot lose it. An error means the launch must not be acknowledged.
// The pending list keeps call's slices: pass a copy nothing writes
// (the runtime passes its replay log's), never a received call.
func (j *Journal) KernelCommitted(ctxID int64, call api.LaunchCall) error {
	payload, err := wal.EncodeGob(kernelRecord{Call: call})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	mc := j.ctx(ctxID)
	if err := j.commit(RecKernelCommitted, ctxID, payload); err != nil {
		return err
	}
	mc.pending = append(mc.pending, call)
	j.maybeCompact()
	return nil
}

// SnapshotContext installs a context's complete state at once (a
// checkpoint, journal attach over a live runtime, an adopted session).
// Synced.
func (j *Journal) SnapshotContext(img *memmgr.ContextImage, pending []api.LaunchCall) error {
	rec := ImageRecord{Image: *img, Pending: pending}
	payload, err := wal.EncodeGob(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.commit(RecImage, img.CtxID, payload); err != nil {
		return err
	}
	j.applyImage(img.CtxID, rec)
	return nil
}

// applyImage replaces a context's mirror state with a full image.
func (j *Journal) applyImage(ctxID int64, rec ImageRecord) {
	mc := &mirrorCtx{
		nextOff: rec.Image.NextOff,
		entries: make(map[api.DevPtr]memmgr.EntryImage, len(rec.Image.Entries)),
		pending: rec.Pending,
	}
	for _, e := range rec.Image.Entries {
		mc.entries[e.Virtual] = e
	}
	j.mirror[ctxID] = mc
}

// Sync forces an fsync barrier: every record appended so far is durable
// when it returns.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Sync()
}

// imageOf builds the ContextImage for one mirrored context, entries in
// ascending virtual-address order (deterministic output).
func (mc *mirrorCtx) imageOf(ctxID int64) *memmgr.ContextImage {
	img := &memmgr.ContextImage{CtxID: ctxID, NextOff: mc.nextOff}
	ptrs := make([]api.DevPtr, 0, len(mc.entries))
	for v := range mc.entries {
		ptrs = append(ptrs, v)
	}
	slices.Sort(ptrs)
	for _, v := range ptrs {
		img.Entries = append(img.Entries, mc.entries[v])
	}
	return img
}

// sortedContexts returns the mirrored context IDs in ascending order.
func (j *Journal) sortedContexts() []int64 {
	ids := make([]int64, 0, len(j.mirror))
	for id := range j.mirror {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Compact folds the journal into a fresh snapshot of the mirror, one
// image record per context (wal.Log.Compact is the crash-atomic
// protocol).
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	ids := j.sortedContexts()
	return j.log.Compact(func(add func(kind uint8, id int64, payload []byte)) error {
		for _, id := range ids {
			mc := j.mirror[id]
			payload, err := wal.EncodeGob(ImageRecord{Image: *mc.imageOf(id), Pending: mc.pending})
			if err != nil {
				return err
			}
			add(uint8(RecImage), id, payload)
		}
		return nil
	})
}

// Close syncs and closes the journal. The files remain, ready for the
// next Open.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
