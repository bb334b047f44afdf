package ckptlog

import (
	"errors"
	"fmt"

	"gvrt/internal/api"
	"gvrt/internal/memmgr"
	"gvrt/internal/wal"
)

// Quarantine describes one context image recovery could not restore.
type Quarantine struct {
	// CtxID is the owning context, or 0 when even the owner is
	// unknowable (a corrupt snapshot region).
	CtxID int64
	// Where locates the damage ("snapshot" or "journal").
	Where string
	// Reason says what failed (payload CRC, record decode, ...).
	Reason string
}

// String implements fmt.Stringer.
func (q Quarantine) String() string {
	if q.CtxID == 0 {
		return fmt.Sprintf("%s: %s", q.Where, q.Reason)
	}
	return fmt.Sprintf("ctx %d (%s): %s", q.CtxID, q.Where, q.Reason)
}

// Recovered is what Open reconstructed from disk.
type Recovered struct {
	// Images are the restored context images, ascending by context ID.
	Images []*memmgr.ContextImage
	// Pending maps a context to the kernels committed after its last
	// checkpoint; the runtime replays them on resume to regenerate the
	// device-only state the crash destroyed (§4.6).
	Pending map[int64][]api.LaunchCall
	// Quarantined lists the context images dropped as corrupt. Their
	// sessions are lost; everything else was restored.
	Quarantined []Quarantine
	// TornBytes is the length of the torn journal tail that was
	// truncated (0 on a clean shutdown).
	TornBytes int64
	// MaxCtxID is the highest context ID seen anywhere in the log —
	// including quarantined and destroyed contexts — so a recovering
	// runtime can keep allocating IDs above every ID ever issued.
	MaxCtxID int64
}

// ErrCorruptSnapshot reports an unrecoverable snapshot: its header —
// which carries the sequence fence that keeps journal replay idempotent
// — is missing or corrupt. Unlike a torn journal tail or a corrupt
// per-context image, this cannot be repaired locally; the operator must
// intervene (restore the file or accept a fresh start).
var ErrCorruptSnapshot = fmt.Errorf("ckptlog: %w: %w", wal.ErrCorruptSnapshot, api.ErrInvalidValue)

// Open opens (creating if absent) the journal directory, recovers the
// state it holds, and returns the journal ready for appends plus what
// was recovered.
//
// Repairs are automatic and loud, never fatal: a torn journal tail is
// truncated, a context image whose payload fails its CRC or decode is
// quarantined while every other context is restored. The one fatal
// corruption is the snapshot header (see ErrCorruptSnapshot).
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	j := &Journal{opts: opts, mirror: make(map[int64]*mirrorCtx)}
	rec := &Recovered{Pending: make(map[int64][]api.LaunchCall)}
	quarantined := make(map[int64]bool)
	log, err := wal.Open(dir, layout, opts, func(r wal.Replayed) { j.replay(rec, quarantined, r) })
	if errors.Is(err, wal.ErrCorruptSnapshot) {
		return nil, nil, ErrCorruptSnapshot
	}
	if err != nil {
		return nil, nil, err
	}
	j.log = log

	// Drop quarantined contexts from the mirror and surface the rest.
	for id := range quarantined {
		delete(j.mirror, id)
	}
	for _, id := range j.sortedContexts() {
		mc := j.mirror[id]
		if len(mc.entries) == 0 && len(mc.pending) == 0 {
			// An empty context (connected, never allocated) is not worth
			// resurrecting as an orphan session; keep mirroring it so a
			// later record can still fill it in, but do not report it.
			continue
		}
		rec.Images = append(rec.Images, mc.imageOf(id))
		if len(mc.pending) > 0 {
			rec.Pending[id] = append([]api.LaunchCall(nil), mc.pending...)
		}
	}
	rec.TornBytes = log.Stats().TornBytes
	j.quarantined = int64(len(rec.Quarantined))
	return j, rec, nil
}

// replay applies one recovered record to the mirror. This is where the
// schema says what damage costs: a record whose payload failed its CRC
// or does not decode quarantines its whole context — the header names
// the owner, so only that context is lost — and every later record for
// a quarantined context is ignored.
func (j *Journal) replay(rec *Recovered, quarantined map[int64]bool, r wal.Replayed) {
	where := "journal"
	if r.Snapshot {
		where = "snapshot"
	}
	if r.Class == wal.Torn {
		rec.Quarantined = append(rec.Quarantined, Quarantine{Where: where, Reason: "unreadable region; remaining images lost"})
		return
	}
	// Quarantined and destroyed contexts still fence the ID allocator.
	if r.ID > rec.MaxCtxID {
		rec.MaxCtxID = r.ID
	}
	if quarantined[r.ID] {
		return
	}
	var reason string
	if r.Class == wal.CorruptPayload {
		reason = "record payload failed CRC"
	} else if err := j.applyRecord(r.Frame); err != nil {
		reason = err.Error()
	}
	if reason != "" {
		quarantined[r.ID] = true
		rec.Quarantined = append(rec.Quarantined, Quarantine{CtxID: r.ID, Where: where, Reason: reason})
		j.opts.Printf("%s: ctx %d quarantined: %s", where, r.ID, reason)
	}
}

// applyRecord applies one verified journal record to the mirror.
func (j *Journal) applyRecord(f wal.Frame) error {
	switch RecType(f.Kind) {
	case RecImage:
		var ir ImageRecord
		if err := wal.DecodeGob(f.Payload, &ir); err != nil {
			return err
		}
		j.applyImage(f.ID, ir)
	case RecContextCreated:
		j.ctx(f.ID)
	case RecContextDestroyed:
		delete(j.mirror, f.ID)
	case RecEntryWritten:
		var er entryRecord
		if err := wal.DecodeGob(f.Payload, &er); err != nil {
			return err
		}
		mc := j.ctx(f.ID)
		mc.entries[er.Entry.Virtual] = er.Entry
		if er.NextOff > mc.nextOff {
			mc.nextOff = er.NextOff
		}
	case RecEntryFreed:
		var fr freeRecord
		if err := wal.DecodeGob(f.Payload, &fr); err != nil {
			return err
		}
		if mc := j.mirror[f.ID]; mc != nil {
			delete(mc.entries, fr.Virtual)
		}
	case RecKernelCommitted:
		var kr kernelRecord
		if err := wal.DecodeGob(f.Payload, &kr); err != nil {
			return err
		}
		mc := j.ctx(f.ID)
		mc.pending = append(mc.pending, kr.Call)
	case RecCheckpoint:
		mc := j.ctx(f.ID)
		mc.pending = mc.pending[:0]
	default:
		// Unknown record types are skipped, not fatal: an older runtime
		// reading a newer journal loses only what it cannot understand.
	}
	return nil
}
