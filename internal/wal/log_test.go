package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gvrt/internal/faultinject"
)

// The toy schema: a map of counters. An inc record adds one to its ID's
// counter — deliberately not idempotent, so a record replayed twice
// (the double-apply trap of a compaction crash) shows up as a wrong
// count — and a snapshot holds one set record per counter.
const (
	toyHeader uint8 = iota + 1
	toyInc
	toySet
)

var toyLayout = Layout{
	Name: "toy", Log: "toy.wal", Snapshot: "toy.snap", Tmp: "toy.tmp", HeaderKind: toyHeader,
	PreSync: "toy.presync", PostSync: "toy.postsync", Compact: "toy.compact",
	CompactBytes: 1 << 20,
}

type toy struct {
	log         *Log
	counts      map[int64]uint64
	quarantined int
}

func openToy(t *testing.T, dir string, opts Options) *toy {
	t.Helper()
	s := &toy{counts: make(map[int64]uint64)}
	log, err := Open(dir, toyLayout, opts, func(r Replayed) {
		switch {
		case r.Class != OK:
			s.quarantined++
		case r.Kind == toyInc:
			s.counts[r.ID]++
		case r.Kind == toySet:
			s.counts[r.ID] = binary.LittleEndian.Uint64(r.Payload)
		}
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.log = log
	return s
}

// inc appends and commits one increment; the mirror is updated only
// after the fsync, like the planes do.
func (s *toy) inc(id int64) error {
	if _, err := s.log.Append(toyInc, id, nil); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.counts[id]++
	return nil
}

func (s *toy) compact() error {
	return s.log.Compact(func(add func(uint8, int64, []byte)) error {
		for id, n := range s.counts {
			add(toySet, id, binary.LittleEndian.AppendUint64(nil, n))
		}
		return nil
	})
}

type crashed struct{}

// crashes runs fn and reports whether an armed crash point fired (the
// OnCrash below panics — the in-process stand-in for SIGKILL).
func crashes(fn func()) (fired bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashed); !ok {
				panic(r)
			}
			fired = true
		}
	}()
	fn()
	return false
}

func crashAt(point faultinject.Point, nth uint64) Options {
	return Options{
		Faults: faultinject.New(faultinject.Plan{Name: "toy-crash", Rules: []faultinject.Rule{{
			Point: point, AtNth: nth, Action: faultinject.ActCrash,
		}}}),
		OnCrash:      func() { panic(crashed{}) },
		CompactBytes: -1,
	}
}

// TestCrashMatrix kills the log at each of its four crash boundaries
// and reopens: the acknowledged state must be intact, nothing applied
// twice, nothing torn or quarantined, the staging file gone, the
// sequence counter still climbing — and after more work on the
// recovered log a further reopen must agree.
func TestCrashMatrix(t *testing.T) {
	inc := func(s *toy) { _ = s.inc(1) }
	compact := func(s *toy) { _ = s.compact() }
	for _, tc := range []struct {
		name  string
		point faultinject.Point
		nth   uint64
		op    func(s *toy) // what the crash interrupts, after 3 acked incs
		// min and max bound counter 1 after recovery.
		min, max uint64
	}{
		// The in-flight record reached the OS before the crash, so the
		// simulation keeps it; a real power loss may not. Both are legal:
		// it was never acknowledged.
		{"pre-sync", toyLayout.PreSync, 4, inc, 3, 4},
		// Past the fsync the record is durable by contract.
		{"post-sync", toyLayout.PostSync, 4, inc, 4, 4},
		// Old snapshot (none) + the full log.
		{"compact-before-rename", toyLayout.Compact, 1, compact, 3, 3},
		// New snapshot + stale log records at or below its fence: a
		// double apply would read 6.
		{"compact-after-rename", toyLayout.Compact, 2, compact, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openToy(t, dir, crashAt(tc.point, tc.nth))
			for i := 0; i < 3; i++ {
				if err := s.inc(1); err != nil {
					t.Fatal(err)
				}
			}
			if !crashes(func() { tc.op(s) }) {
				t.Fatal("crash point did not fire")
			}
			seqAtCrash := s.log.Seq()

			s2 := openToy(t, dir, Options{CompactBytes: -1})
			got := s2.counts[1]
			if got < tc.min || got > tc.max {
				t.Fatalf("counter after recovery = %d, want %d..%d", got, tc.min, tc.max)
			}
			if s2.quarantined != 0 || s2.log.Stats().TornBytes != 0 {
				t.Fatalf("crash recovery repaired something: quarantined=%d stats=%+v", s2.quarantined, s2.log.Stats())
			}
			if _, err := os.Stat(filepath.Join(dir, toyLayout.Tmp)); !os.IsNotExist(err) {
				t.Fatalf("staging file survived recovery: %v", err)
			}
			if s2.log.Seq() < seqAtCrash-1 || s2.log.Seq() > seqAtCrash {
				t.Fatalf("recovered seq %d, crashed at %d", s2.log.Seq(), seqAtCrash)
			}
			// The recovered log keeps working: commit, compact, commit.
			if err := s2.inc(1); err != nil {
				t.Fatal(err)
			}
			if err := s2.compact(); err != nil {
				t.Fatal(err)
			}
			if err := s2.inc(1); err != nil {
				t.Fatal(err)
			}
			if err := s2.log.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := openToy(t, dir, Options{})
			defer s3.log.Close()
			if s3.counts[1] != got+2 || s3.log.Seq() != s2.log.Seq() {
				t.Fatalf("second recovery: counter %d (want %d), seq %d (want %d)",
					s3.counts[1], got+2, s3.log.Seq(), s2.log.Seq())
			}
		})
	}
}

// TestSeqResumesAboveCorruptTail: the last record's payload is damaged,
// so it is quarantined — but its header verified, and its sequence
// number must not be handed to the next append (two records sharing a
// number would make a later fence skip or double-apply one of them).
func TestSeqResumesAboveCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s := openToy(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := s.log.Append(toySet, 1, binary.LittleEndian.AppendUint64(nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.log.Close()
	path := filepath.Join(dir, toyLayout.Log)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-tailLen-1] ^= 0xff // inside the third record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openToy(t, dir, Options{})
	defer s2.log.Close()
	if s2.quarantined != 1 || s2.counts[1] != 1 {
		t.Fatalf("quarantined=%d counts=%v, want the third record dropped", s2.quarantined, s2.counts)
	}
	if seq, err := s2.log.Append(toyInc, 1, nil); err != nil || seq != 4 {
		t.Fatalf("append after corrupt tail got seq %d (%v), want 4", seq, err)
	}
}

func TestBareLogHasNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	lay := Layout{Name: "bare", Log: "bare.log"}
	open := func() (*Log, []int64) {
		var ids []int64
		l, err := Open(dir, lay, Options{CompactBytes: 1}, func(r Replayed) { ids = append(ids, r.ID) })
		if err != nil {
			t.Fatal(err)
		}
		return l, ids
	}
	l, _ := open()
	for id := int64(1); id <= 2; id++ {
		if _, err := l.Append(1, id, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if l.CompactDue() {
		t.Fatal("a log without a snapshot asked to be compacted")
	}
	l.Close()
	l2, ids := open()
	defer l2.Close()
	if fmt.Sprint(ids) != "[1 2]" {
		t.Fatalf("replayed %v, want [1 2]", ids)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, want := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, write(want)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Fatalf("content = %q, want %q", got, want)
		}
	}
	// A failed write publishes nothing and leaves no staging file.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}
