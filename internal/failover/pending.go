package failover

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gvrt/internal/wal"
)

// This file implements the target side's crash safety: an import in
// progress is recorded as a pending-operation sidecar (heketi's
// pending-op pattern) next to a spool of the chunk frames received so
// far. The records buy two properties:
//
//   - Resumable offsets: a transfer that broke mid-stream (source died,
//     partition) leaves its spooled chunks on disk; when the source —
//     or a failover retry — re-sends Hello for the same session and
//     epoch, the target excludes the spooled chunks from its need-set,
//     so only the missing tail crosses the wire again.
//   - Clean abort: a target that crashed mid-import comes back up with
//     a pending record but no imported session. Recovery resolves the
//     record by deleting it and its spool — the import either committed
//     atomically (record gone, session journaled) or never happened.
//
// An empty dir runs the spool purely in memory: no crash durability,
// but the same resumable-offsets behaviour for live-target retries.

// PendingRecord describes one in-flight import.
type PendingRecord struct {
	Session int64  `json:"session"`
	Owner   string `json:"owner"`
	Epoch   uint64 `json:"epoch"`
	// Total is the number of chunks the transfer's manifest names.
	Total int `json:"total_chunks"`
}

func pendingPath(dir string, session int64) string {
	return filepath.Join(dir, fmt.Sprintf("mig-%d.pending", session))
}

func spoolName(session int64) string { return fmt.Sprintf("mig-%d.spool", session) }

func spoolPath(dir string, session int64) string {
	return filepath.Join(dir, spoolName(session))
}

// Spool accumulates received chunks for one import. Not safe for
// concurrent use; the import runs under its connection's service lock.
type Spool struct {
	dir    string
	rec    PendingRecord
	chunks map[ChunkID][]byte
	log    *wal.Log // a bare append log of chunk frames; nil in memory
}

// OpenSpool starts (or resumes) the spool for rec. With a directory it
// publishes the pending record atomically, then replays any existing
// spool: chunk frames recorded by a previous attempt at the same epoch
// are loaded as already-received, a torn tail — the crash arrived
// mid-append — is truncated away and a corrupt frame skipped, exactly
// like the journal's recovery. A spool from a different epoch or owner
// is stale (the image changed); it is removed before the new record is
// published, so no failure in between can pair a new record with old
// chunks.
func OpenSpool(dir string, rec PendingRecord) (*Spool, error) {
	s := &Spool{dir: dir, rec: rec, chunks: make(map[ChunkID][]byte)}
	if dir == "" {
		return s, nil
	}
	prev, err := readPending(pendingPath(dir, rec.Session))
	if err != nil || prev.Epoch != rec.Epoch || prev.Owner != rec.Owner {
		if err := os.Remove(spoolPath(dir, rec.Session)); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("failover: discarding stale spool: %w", err)
		}
	}
	if err := writePending(pendingPath(dir, rec.Session), rec); err != nil {
		return nil, err
	}
	s.log, err = wal.Open(dir, wal.Layout{Name: "failover", Log: spoolName(rec.Session)}, wal.Options{},
		func(r wal.Replayed) {
			var c Chunk
			if r.Class == wal.OK && r.Kind == FrameChunk && wal.DecodeGob(r.Payload, &c) == nil {
				s.chunks[c.ID] = c.Data
			}
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Has reports whether the chunk was already received.
func (s *Spool) Has(id ChunkID) bool {
	_, ok := s.chunks[id]
	return ok
}

// Get returns a received chunk's bytes.
func (s *Spool) Get(id ChunkID) ([]byte, bool) {
	b, ok := s.chunks[id]
	return b, ok
}

// Count reports how many chunks the spool holds.
func (s *Spool) Count() int { return len(s.chunks) }

// Put records a chunk received over the wire, appending it to the spool
// file when there is one so a retry after a crash need not re-ship it.
func (s *Spool) Put(id ChunkID, data []byte) error {
	s.chunks[id] = data
	if s.log == nil {
		return nil
	}
	payload, err := wal.EncodeGob(Chunk{ID: id, Data: data})
	if err != nil {
		return err
	}
	_, err = s.log.Append(FrameChunk, s.rec.Session, payload)
	return err
}

// Drop forgets a chunk that turned out not to match the manifest it is
// being resumed against; the source will be asked for it again. A stale
// copy left in the spool file is harmless: the re-sent chunk is appended
// after it and replay keeps the later record.
func (s *Spool) Drop(id ChunkID) { delete(s.chunks, id) }

// Resolve finishes the pending operation: the record and spool are
// deleted. Call it after the import committed (the journal now owns the
// session) or when aborting a dead transfer.
func (s *Spool) Resolve() {
	s.Close()
	if s.dir != "" {
		_ = os.Remove(pendingPath(s.dir, s.rec.Session))
		_ = os.Remove(spoolPath(s.dir, s.rec.Session))
	}
	s.chunks = make(map[ChunkID][]byte)
}

// Close releases the spool file without deleting anything — the pending
// record survives for a later resume or recovery-time abort.
func (s *Spool) Close() {
	if s.log != nil {
		_ = s.log.Close() // best effort: a lost chunk is simply re-sent
		s.log = nil
	}
}

// PendingOps lists the pending-operation records in dir.
func PendingOps(dir string) []PendingRecord {
	if dir == "" {
		return nil
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "mig-*.pending"))
	var recs []PendingRecord
	for _, path := range matches {
		if rec, err := readPending(path); err == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// ResolvePending aborts every pending import in dir (target restart:
// nothing in-flight can complete, and a committed import already
// resolved its record). Returns the records aborted.
func ResolvePending(dir string) []PendingRecord {
	recs := PendingOps(dir)
	for _, rec := range recs {
		_ = os.Remove(pendingPath(dir, rec.Session))
		_ = os.Remove(spoolPath(dir, rec.Session))
	}
	return recs
}

func readPending(path string) (PendingRecord, error) {
	var rec PendingRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("failover: corrupt pending record %s: %w", path, err)
	}
	return rec, nil
}

func writePending(path string, rec PendingRecord) error {
	err := wal.WriteFileAtomic(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(rec) })
	if err != nil {
		return fmt.Errorf("failover: publishing pending record: %w", err)
	}
	return nil
}
