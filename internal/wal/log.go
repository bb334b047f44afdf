package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
)

// Options tunes a Log. The planes alias it (ckptlog.Options,
// ctrlplane.Options) so there is one set of durability knobs.
type Options struct {
	// Faults, when set, arms the log's crash points (pre-fsync,
	// post-fsync, mid-compaction) against the deterministic fault plane.
	Faults *faultinject.Plane
	// OnCrash is invoked when an armed crash point fires. Nil ignores
	// crash decisions (library users); daemons install ckptlog.Die so an
	// armed point kills the process exactly as a power loss would.
	OnCrash func()
	// CompactBytes is the auto-compaction threshold: log bytes appended
	// since the last compaction. 0 means the plane's default, negative
	// disables auto-compaction.
	CompactBytes int64
	// Logf, when set, receives log events (compactions, recovery
	// repairs, quarantines).
	Logf func(format string, args ...any)
}

// Printf emits a log event through Logf when one is configured.
func (o *Options) Printf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Layout is what a schema fixes about its log at construction: names,
// not knobs — nothing here is user-settable.
type Layout struct {
	// Name prefixes errors and log lines ("ckptlog").
	Name string
	// Log is the append-only file. Snapshot and Tmp are the compacted
	// image and its staging file; a Layout without a Snapshot is a bare
	// append log that is never compacted (the migration spool).
	Log, Snapshot, Tmp string
	// HeaderKind is the frame kind of the snapshot's first record.
	HeaderKind uint8
	// PreSync, PostSync and Compact name the plane's crash points.
	PreSync, PostSync, Compact faultinject.Point
	// CompactBytes is the plane's default auto-compaction threshold.
	CompactBytes int64
}

// ErrCorruptSnapshot reports an unrecoverable snapshot: its header —
// which carries the sequence fence that keeps log replay idempotent
// across a compaction crash — is missing or corrupt. Unlike a torn tail
// or a corrupt record this cannot be repaired locally; the operator
// must restore the file or move the directory aside.
var ErrCorruptSnapshot = errors.New("snapshot header corrupt")

// snapHeader is the payload of a snapshot's first frame. AppliedSeq is
// the sequence fence: every log record with Seq <= AppliedSeq is already
// folded into the snapshot and is skipped on replay. (Snapshots written
// before this package existed also carry a record count; gob matches
// fields by name and ignores it.)
type snapHeader struct {
	AppliedSeq uint64
}

// Replayed is one record handed to a schema during Open.
type Replayed struct {
	Frame
	// Class is OK or CorruptPayload (Payload nil; Kind, ID and Seq are
	// still trustworthy). What a corrupt record costs is the schema's
	// call: the journal drops the owning context, the store counts and
	// skips the transaction. Torn is delivered once, with a zero Frame,
	// when a snapshot is unreadable from some point on — media damage,
	// since snapshots are published whole — and the rest of it is lost.
	Class Class
	// Snapshot is true for snapshot records, false for log records.
	Snapshot bool
}

// Stats is a snapshot of a Log's counters.
type Stats struct {
	// Appends, Bytes and Syncs count records, log bytes and fsync
	// barriers this run; Compactions counts completed compactions.
	Appends, Bytes, Syncs, Compactions int64
	// TornBytes is the torn log tail truncated during Open.
	TornBytes int64
}

// Log is an open durable log. It holds no lock: the owning plane's
// mutex — the one that already guards the mirror the records describe —
// serialises every call.
type Log struct {
	dir  string
	lay  Layout
	opts Options

	preSync, postSync, compact *faultinject.Hook

	f       *os.File
	seq     uint64
	applied uint64 // sequence fence of the current snapshot
	size    int64  // log bytes since the last compaction
	dead    bool   // a persistent write error, or closed
	stats   Stats
}

// Open opens (creating if absent) the log in dir and replays what it
// holds through replay: first the snapshot's records, then every log
// record above the snapshot's fence, in order. Repairs are automatic
// and loud, never fatal — a staging file left by an interrupted
// compaction is removed, a torn log tail (a crash mid-append; nothing in
// it was ever acknowledged) is truncated so the next append starts on a
// frame boundary. The sequence counter resumes above every
// header-verified frame, corrupt-payload ones included, so a
// quarantined record's number is never reissued. The one fatal
// corruption is ErrCorruptSnapshot.
func Open(dir string, lay Layout, opts Options, replay func(Replayed)) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: creating directory: %w", lay.Name, err)
	}
	l := &Log{
		dir:      dir,
		lay:      lay,
		opts:     opts,
		preSync:  opts.Faults.Hook(lay.PreSync, ""),
		postSync: opts.Faults.Hook(lay.PostSync, ""),
		compact:  opts.Faults.Hook(lay.Compact, ""),
	}
	if lay.Snapshot != "" {
		// A leftover staging file is a compaction that died before its
		// rename: the old snapshot + log are authoritative.
		if os.Remove(filepath.Join(dir, lay.Tmp)) == nil {
			l.opts.Printf("removed interrupted compaction temp")
		}
		if err := l.replaySnapshot(replay); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, lay.Log), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: opening log: %w", lay.Name, err)
	}
	if err := l.replayLog(f, replay); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	return l, nil
}

func (l *Log) replaySnapshot(replay func(Replayed)) error {
	data, err := os.ReadFile(filepath.Join(l.dir, l.lay.Snapshot))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%s: reading snapshot: %w", l.lay.Name, err)
	}
	if len(data) == 0 {
		return nil
	}
	f, off, c := DecodeFrame(data)
	var hdr snapHeader
	if c != OK || f.Kind != l.lay.HeaderKind || DecodeGob(f.Payload, &hdr) != nil {
		return fmt.Errorf("%s: %w", l.lay.Name, ErrCorruptSnapshot)
	}
	l.seq, l.applied = hdr.AppliedSeq, hdr.AppliedSeq
	for records := 0; off < len(data); records++ {
		f, n, c := DecodeFrame(data[off:])
		if c == Torn {
			l.opts.Printf("snapshot: unreadable after %d records; %d bytes lost", records, len(data)-off)
			replay(Replayed{Class: Torn, Snapshot: true})
			return nil
		}
		replay(Replayed{Frame: f, Class: c, Snapshot: true})
		off += n
	}
	return nil
}

func (l *Log) replayLog(file *os.File, replay func(Replayed)) error {
	var data []byte
	st, err := file.Stat()
	if err == nil {
		data = make([]byte, st.Size())
		_, err = io.ReadFull(file, data)
	}
	if err != nil {
		return fmt.Errorf("%s: reading log: %w", l.lay.Name, err)
	}
	off := 0
	for off < len(data) {
		f, n, c := DecodeFrame(data[off:])
		if c == Torn {
			l.stats.TornBytes = int64(len(data) - off)
			l.opts.Printf("log: torn tail of %d bytes at offset %d; truncated", l.stats.TornBytes, off)
			if err := file.Truncate(int64(off)); err != nil {
				return fmt.Errorf("%s: truncating torn tail: %w", l.lay.Name, err)
			}
			break
		}
		off += n
		if f.Seq > l.seq {
			l.seq = f.Seq
		}
		if f.Seq <= l.applied {
			// Already folded into the snapshot (a compaction crashed
			// between its rename and the log truncation).
			continue
		}
		replay(Replayed{Frame: f, Class: c})
	}
	l.size = int64(off)
	return nil
}

// crashPoint consults an armed crash hook and, when it fires, invokes
// OnCrash. With the production OnCrash (ckptlog.Die) it never returns.
func (l *Log) crashPoint(h *faultinject.Hook) {
	if h != nil && h.Check().Crash && l.opts.OnCrash != nil {
		l.opts.OnCrash()
	}
}

// fail marks the log dead after a persistent write error and returns
// the typed failure: every later Append, Sync and Compact is refused, so
// nothing is acknowledged that the disk may not hold.
func (l *Log) fail(op string, err error) error {
	l.dead = true
	l.opts.Printf("%s failed (log now dead): %v", op, err)
	return fmt.Errorf("%s: %s: %v: %w", l.lay.Name, op, err, api.ErrJournalFailure)
}

func (l *Log) errDead() error {
	return fmt.Errorf("%s: log dead after an earlier write error or Close: %w", l.lay.Name, api.ErrJournalFailure)
}

// Healthy reports whether the log can still persist records: false
// after a persistent write error or Close.
func (l *Log) Healthy() bool { return !l.dead }

// Seq returns the sequence number of the latest record.
func (l *Log) Seq() uint64 { return l.seq }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats { return l.stats }

// Append frames one record under the next sequence number and writes it
// to the log. It is not durable until Sync returns; fsync is ordered, so
// one Sync covers every earlier Append.
func (l *Log) Append(kind uint8, id int64, payload []byte) (seq uint64, err error) {
	if l.dead {
		return 0, l.errDead()
	}
	l.seq++
	buf := EncodeFrame(nil, Frame{Kind: kind, ID: id, Seq: l.seq, Payload: payload})
	if _, err := l.f.Write(buf); err != nil {
		return 0, l.fail("append", err)
	}
	l.size += int64(len(buf))
	l.stats.Appends++
	l.stats.Bytes += int64(len(buf))
	return l.seq, nil
}

// Sync is the fsync barrier, bracketed by the pre- and post-sync crash
// points: when it returns nil every record appended so far is durable.
func (l *Log) Sync() error {
	if l.dead {
		return l.errDead()
	}
	l.crashPoint(l.preSync)
	if err := l.f.Sync(); err != nil {
		return l.fail("fsync", err)
	}
	l.stats.Syncs++
	l.crashPoint(l.postSync)
	return nil
}

// CompactDue reports whether the log grew past the auto-compaction
// threshold since the last compaction.
func (l *Log) CompactDue() bool {
	limit := l.opts.CompactBytes
	if limit == 0 {
		limit = l.lay.CompactBytes
	}
	return limit > 0 && l.size >= limit && l.lay.Snapshot != ""
}

// Compact folds the log into a fresh snapshot. emit writes the schema's
// whole mirror through add, one record per call. The snapshot is staged,
// fsynced, atomically renamed into place, and the log truncated. A crash
// at any boundary — including the two armed mid-compaction crash points
// — leaves either the old state (before the rename) or the new state
// (after it), never a mix: log records already folded into the renamed
// snapshot sit at or below its fence and are skipped on replay.
func (l *Log) Compact(emit func(add func(kind uint8, id int64, payload []byte)) error) error {
	// The snapshot must not outrun the log: sync first so the fence
	// covers only records that are actually durable.
	if err := l.Sync(); err != nil {
		return err
	}
	hdr, err := EncodeGob(snapHeader{AppliedSeq: l.seq})
	if err != nil {
		return err
	}
	buf := EncodeFrame(nil, Frame{Kind: l.lay.HeaderKind, Seq: l.seq, Payload: hdr})
	records := 0
	err = emit(func(kind uint8, id int64, payload []byte) {
		buf = EncodeFrame(buf, Frame{Kind: kind, ID: id, Seq: l.seq, Payload: payload})
		records++
	})
	if err != nil {
		return err
	}
	err = replaceFile(filepath.Join(l.dir, l.lay.Snapshot), filepath.Join(l.dir, l.lay.Tmp),
		func(w io.Writer) error { _, err := w.Write(buf); return err },
		// Crash point 1: staging file durable, rename not yet done. A
		// crash here recovers from the OLD snapshot + full log.
		func() { l.crashPoint(l.compact) })
	if err != nil {
		return fmt.Errorf("%s: installing snapshot: %w", l.lay.Name, err)
	}
	// Crash point 2: new snapshot installed, log not yet truncated. A
	// crash here recovers from the NEW snapshot; the log's stale records
	// sit below the fence and replay as no-ops.
	l.crashPoint(l.compact)

	// The file is O_APPEND, so the next write lands at the new end.
	if err := l.f.Truncate(0); err != nil {
		return l.fail("truncating compacted log", err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail("syncing truncated log", err)
	}
	l.applied = l.seq
	l.size = 0
	l.stats.Compactions++
	l.opts.Printf("compacted: %d records, fence seq %d", records, l.applied)
	return nil
}

// Close syncs (unless already dead) and closes the log. The files
// remain, ready for the next Open.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var serr error
	if !l.dead {
		serr = l.Sync()
	}
	cerr := l.f.Close()
	l.f = nil
	l.dead = true
	if serr != nil {
		return serr
	}
	return cerr
}
