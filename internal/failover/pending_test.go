package failover

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSpoolResumeSameEpoch(t *testing.T) {
	dir := t.TempDir()
	rec := PendingRecord{Session: 7, Owner: "src", Epoch: 3, Total: 4}

	s1, err := OpenSpool(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ChunkID{Entry: 0, Index: 0}, []byte("chunk-0")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ChunkID{Entry: 0, Index: 1}, []byte("chunk-1")); err != nil {
		t.Fatal(err)
	}
	s1.Close() // crash/partition: record and spool stay on disk

	if ops := PendingOps(dir); len(ops) != 1 || ops[0] != rec {
		t.Fatalf("PendingOps = %+v, want [%+v]", ops, rec)
	}

	// Same source, same epoch: the retry resumes the wire chunks.
	s2, err := OpenSpool(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(ChunkID{0, 0}) || !s2.Has(ChunkID{0, 1}) {
		t.Fatalf("resumed spool lost wire chunks (count %d)", s2.Count())
	}
	if s2.Count() != 2 {
		t.Fatalf("resumed spool holds %d chunks, want the 2 put", s2.Count())
	}
	if b, ok := s2.Get(ChunkID{0, 1}); !ok || string(b) != "chunk-1" {
		t.Fatalf("resumed chunk bytes = %q, %v", b, ok)
	}

	// Commit resolves both files.
	s2.Resolve()
	if ops := PendingOps(dir); len(ops) != 0 {
		t.Fatalf("PendingOps after resolve = %+v", ops)
	}
	if _, err := os.Stat(spoolPath(dir, 7)); !os.IsNotExist(err) {
		t.Fatalf("spool file survived resolve: %v", err)
	}
}

func TestSpoolDiscardsStaleEpoch(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenSpool(dir, PendingRecord{Session: 7, Owner: "src", Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ChunkID{0, 0}, []byte("old-epoch")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// The source was deposed and re-acquired at a later epoch: its image
	// may have changed, so the old spool is untrustworthy.
	s2, err := OpenSpool(dir, PendingRecord{Session: 7, Owner: "src", Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 0 {
		t.Fatalf("stale-epoch spool kept %d chunks", s2.Count())
	}
	s2.Close()

	// Same for a different claimed owner at the same epoch.
	s3, err := OpenSpool(dir, PendingRecord{Session: 7, Owner: "other", Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Count() != 0 {
		t.Fatalf("foreign-owner spool kept %d chunks", s3.Count())
	}
	s3.Resolve()
}

// TestSpoolStaleDiscardPrecedesNewRecord: when the stale-epoch spool
// cannot be removed, the new-epoch record must not have been published
// — a new record over old chunks is the one pairing that resumes wrong
// bytes.
func TestSpoolStaleDiscardPrecedesNewRecord(t *testing.T) {
	dir := t.TempDir()
	old := PendingRecord{Session: 7, Owner: "src", Epoch: 3}
	s1, err := OpenSpool(dir, old)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	// Make the removal fail: a non-empty directory where the spool was.
	path := spoolPath(dir, 7)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSpool(dir, PendingRecord{Session: 7, Owner: "src", Epoch: 4}); err == nil {
		t.Fatal("OpenSpool succeeded over an unremovable stale spool")
	}
	if ops := PendingOps(dir); len(ops) != 1 || ops[0] != old {
		t.Fatalf("pending record after failed discard = %+v, want the old epoch's %+v", ops, old)
	}
}

func TestSpoolTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	rec := PendingRecord{Session: 9, Owner: "src", Epoch: 1}
	s1, err := OpenSpool(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ChunkID{0, 0}, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ChunkID{0, 1}, []byte("to-be-torn")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Crash mid-append: chop bytes off the last frame.
	path := spoolPath(dir, 9)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSpool(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(ChunkID{0, 0}) {
		t.Fatal("intact chunk lost with the torn tail")
	}
	if s2.Has(ChunkID{0, 1}) {
		t.Fatal("torn chunk resurrected")
	}
	// The file was truncated to the clean prefix, so a fresh append
	// extends intact frames.
	if err := s2.Put(ChunkID{0, 1}, []byte("re-sent")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenSpool(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := s3.Get(ChunkID{0, 1}); !ok || string(b) != "re-sent" {
		t.Fatalf("re-sent chunk after torn-tail truncate = %q, %v", b, ok)
	}
	s3.Resolve()
}

func TestSpoolInMemoryWithoutDir(t *testing.T) {
	s, err := OpenSpool("", PendingRecord{Session: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ChunkID{0, 0}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !s.Has(ChunkID{0, 0}) {
		t.Fatal("in-memory spool lost a chunk")
	}
	s.Resolve()
	if got := PendingOps(""); got != nil {
		t.Fatalf("PendingOps(\"\") = %v", got)
	}
}

func TestResolvePendingAbortsAllAtBoot(t *testing.T) {
	dir := t.TempDir()
	for i := int64(1); i <= 3; i++ {
		s, err := OpenSpool(dir, PendingRecord{Session: i, Owner: "src", Epoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(ChunkID{0, 0}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		s.Close() // all three die mid-import
	}
	var logged int
	if n := ResolvePending(dir, func(string, ...any) { logged++ }); n != 3 {
		t.Fatalf("ResolvePending aborted %d, want 3", n)
	}
	if logged != 3 {
		t.Fatalf("ResolvePending logged %d aborts, want 3", logged)
	}
	if ops := PendingOps(dir); len(ops) != 0 {
		t.Fatalf("pending ops survived boot abort: %+v", ops)
	}
	// Idempotent on a clean dir.
	if n := ResolvePending(dir, nil); n != 0 {
		t.Fatalf("second ResolvePending aborted %d, want 0", n)
	}
}

func TestPendingOpsSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, PendingRecord{Session: 1, Owner: "src", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(pendingPath(dir, 2), []byte("{torn json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ops := PendingOps(dir)
	if len(ops) != 1 || ops[0].Session != 1 {
		t.Fatalf("PendingOps with corrupt sibling = %+v, want just session 1", ops)
	}
}
