package ctrlplane

import (
	"os"
	"path/filepath"
	"testing"

	"gvrt/internal/faultinject"
	"gvrt/internal/wal"
)

func mustOpenStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustCommit(t *testing.T, s *Store, txn *Txn) {
	t.Helper()
	if err := s.Commit(txn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func wantVal(t *testing.T, s *Store, key, want string) {
	t.Helper()
	v, ok := s.Get(key)
	if !ok {
		t.Fatalf("key %q missing, want %q", key, want)
	}
	if string(v) != want {
		t.Fatalf("key %q = %q, want %q", key, v, want)
	}
}

// TestStoreCommitRecover commits transactions (including a multi-key
// one and a delete) and checks the state survives a close/reopen.
func TestStoreCommitRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, Options{})
	mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
	mustCommit(t, s, (&Txn{}).Put("b", []byte("2")).Put("c", []byte("3")))
	mustCommit(t, s, (&Txn{}).Put("a", []byte("4")).Delete("b"))
	seq := s.Seq()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpenStore(t, dir, Options{})
	defer s2.Close()
	wantVal(t, s2, "a", "4")
	wantVal(t, s2, "c", "3")
	if _, ok := s2.Get("b"); ok {
		t.Fatal("deleted key b survived recovery")
	}
	if got := s2.Seq(); got != seq {
		t.Fatalf("recovered seq = %d, want %d", got, seq)
	}
	if kvs := s2.List(""); len(kvs) != 2 {
		t.Fatalf("recovered %d keys, want 2: %+v", len(kvs), kvs)
	}
}

// TestStoreTornTail appends garbage where the next record would go and
// checks recovery truncates it without losing committed state.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, Options{})
	mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn-write-garbage"))
	f.Close()

	s2 := mustOpenStore(t, dir, Options{})
	defer s2.Close()
	wantVal(t, s2, "a", "1")
	if s2.Stats().TornBytes == 0 {
		t.Fatal("torn tail not counted")
	}
	// The truncated WAL must accept new commits and survive another
	// reopen (the torn bytes are really gone, not re-read).
	mustCommit(t, s2, (&Txn{}).Put("b", []byte("2")))
	s2.Close()
	s3 := mustOpenStore(t, dir, Options{})
	defer s3.Close()
	wantVal(t, s3, "a", "1")
	wantVal(t, s3, "b", "2")
	if s3.Stats().TornBytes != 0 {
		t.Fatalf("torn bytes reappeared after truncation: %+v", s3.Stats())
	}
}

// TestStoreCorruptRecordQuarantined flips a payload byte in the middle
// WAL record: recovery must skip exactly that transaction, count it,
// and keep every other record.
func TestStoreCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, Options{})
	mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
	mustCommit(t, s, (&Txn{}).Put("b", []byte("2")))
	mustCommit(t, s, (&Txn{}).Put("c", []byte("3")))
	s.Close()

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk to the second frame and flip a byte just before its trailing
	// payload CRC.
	_, n1, res := wal.DecodeFrame(data)
	if res != wal.OK {
		t.Fatalf("first frame: %v", res)
	}
	_, n2, res := wal.DecodeFrame(data[n1:])
	if res != wal.OK {
		t.Fatalf("second frame: %v", res)
	}
	data[n1+n2-5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpenStore(t, dir, Options{})
	defer s2.Close()
	wantVal(t, s2, "a", "1")
	wantVal(t, s2, "c", "3")
	if _, ok := s2.Get("b"); ok {
		t.Fatal("corrupt record's key b survived")
	}
	if got := s2.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
}

// TestStoreSequenceContinuesPastCorruptTail damages the last WAL
// record's payload: it is quarantined, but its header verified, so its
// sequence number is taken — the next commit must not reuse it.
func TestStoreSequenceContinuesPastCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, Options{})
	mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
	mustCommit(t, s, (&Txn{}).Put("b", []byte("2")))
	seq := s.Seq()
	s.Close()

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // last payload byte of the tail record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpenStore(t, dir, Options{})
	defer s2.Close()
	if got := s2.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if got := s2.Seq(); got != seq {
		t.Fatalf("recovered seq = %d, want %d (the quarantined record's)", got, seq)
	}
	mustCommit(t, s2, (&Txn{}).Put("c", []byte("3")))
	if got := s2.Seq(); got != seq+1 {
		t.Fatalf("commit after corrupt tail got seq %d, want %d", got, seq+1)
	}
}

// TestStoreCorruptSnapshotHeader destroys the snapshot header: the
// sequence fence is gone, so Open must refuse with ErrCorruptSnapshot
// rather than risk double-applying folded records.
func TestStoreCorruptSnapshotHeader(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, Options{})
	mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s.Close()

	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != ErrCorruptSnapshot {
		t.Fatalf("Open over corrupt snapshot = %v, want ErrCorruptSnapshot", err)
	}
}

// storeCrashSentinel distinguishes the simulated crash from real panics.
type storeCrashSentinel struct{}

// simulateStoreCrash runs fn with the store's OnCrash panicking,
// catching the panic — the in-process stand-in for SIGKILL.
func simulateStoreCrash(t *testing.T, s *Store, fn func()) (crashed bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(storeCrashSentinel); !ok {
			panic(r)
		}
		crashed = true
		// The "process" died with s.mu possibly held; the instance is
		// dead either way, but unlock so Close cannot deadlock.
		s.mu.TryLock()
		s.mu.Unlock()
	}()
	fn()
	return false
}

func storeCrashPlan(point faultinject.Point, nth uint64) *faultinject.Plane {
	return faultinject.New(faultinject.Plan{
		Name: "store-crash",
		Rules: []faultinject.Rule{{
			Point:  point,
			AtNth:  nth,
			Action: faultinject.ActCrash,
		}},
	})
}

// TestStoreCompactionCrashAtomicity kills the store at both
// mid-compaction crash points: before the rename the old snapshot +
// full WAL must recover the state; after it the new snapshot holds the
// state and the stale WAL records sit below the sequence fence (the
// double-apply trap).
func TestStoreCompactionCrashAtomicity(t *testing.T) {
	for _, tc := range []struct {
		name string
		nth  uint64
	}{
		{"before-rename", 1},
		{"after-rename-before-truncate", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpenStore(t, dir, Options{
				Faults:  storeCrashPlan(faultinject.PointStoreCompact, tc.nth),
				OnCrash: func() { panic(storeCrashSentinel{}) },
			})
			mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
			mustCommit(t, s, (&Txn{}).Put("b", []byte("2")).Delete("a"))
			if !simulateStoreCrash(t, s, func() { _ = s.Compact() }) {
				t.Fatal("compaction crash point did not fire")
			}

			s2 := mustOpenStore(t, dir, Options{})
			defer s2.Close()
			wantVal(t, s2, "b", "2")
			if _, ok := s2.Get("a"); ok {
				t.Fatal("deleted key a resurrected by compaction crash")
			}
			if got := s2.Stats().Quarantined; got != 0 {
				t.Fatalf("crash recovery quarantined %d records", got)
			}
		})
	}
}

// TestStoreCommitCrashPoints kills the store around the commit fsync. A
// post-fsync crash's transaction is durable by contract; a pre-fsync
// crash's may or may not survive (the bytes reached the OS), but
// recovery must keep earlier state intact either way.
func TestStoreCommitCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name    string
		point   faultinject.Point
		require bool // the crashed commit must survive
	}{
		{"pre-fsync", faultinject.PointStorePreSync, false},
		{"post-fsync", faultinject.PointStorePostSync, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpenStore(t, dir, Options{
				Faults:  storeCrashPlan(tc.point, 2),
				OnCrash: func() { panic(storeCrashSentinel{}) },
			})
			mustCommit(t, s, (&Txn{}).Put("a", []byte("1")))
			crashed := simulateStoreCrash(t, s, func() {
				_ = s.Commit((&Txn{}).Put("b", []byte("2")))
			})
			if !crashed {
				t.Fatal("commit crash point did not fire")
			}

			s2 := mustOpenStore(t, dir, Options{})
			defer s2.Close()
			wantVal(t, s2, "a", "1")
			if v, ok := s2.Get("b"); ok && string(v) != "2" {
				t.Fatalf("crashed commit recovered mangled: %q", v)
			} else if tc.require && !ok {
				t.Fatal("post-fsync commit lost")
			}
		})
	}
}

// TestStoreSubscribe checks commit events reach a watcher with the
// affected keys, and that cancel closes the channel.
func TestStoreSubscribe(t *testing.T) {
	s := mustOpenStore(t, t.TempDir(), Options{})
	defer s.Close()
	ch, cancel := s.Subscribe(4)
	mustCommit(t, s, (&Txn{}).Put("a", []byte("1")).Delete("z"))
	ev := <-ch
	if ev.Seq != s.Seq() || len(ev.Puts) != 1 || ev.Puts[0] != "a" ||
		len(ev.Deletes) != 1 || ev.Deletes[0] != "z" {
		t.Fatalf("event = %+v", ev)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
}

// TestStoreAutoCompact drives the WAL past the threshold and checks a
// compaction ran and the state still recovers.
func TestStoreAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, Options{CompactBytes: 256})
	for i := 0; i < 32; i++ {
		mustCommit(t, s, (&Txn{}).Put("k", []byte{byte(i)}))
	}
	if got := s.Stats().Compactions; got == 0 {
		t.Fatal("auto-compaction never ran")
	}
	s.Close()
	s2 := mustOpenStore(t, dir, Options{})
	defer s2.Close()
	wantVal(t, s2, "k", string([]byte{31}))
}
