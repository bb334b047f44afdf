package ctrlplane

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gvrt/internal/wal"
)

// FuzzStoreRecover writes arbitrary bytes as both snapshot and WAL and
// runs full store recovery: Open must either succeed (truncating torn
// tails, quarantining corrupt records) or return ErrCorruptSnapshot,
// and never panic. A store that opens must still accept commits and
// recover identically on a second pass.
func FuzzStoreRecover(f *testing.F) {
	seedDir := f.TempDir()
	s, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	s.Commit((&Txn{}).Put(TenantKey("acme"), encodeJSON(Tenant{Name: "acme"})))
	s.Commit((&Txn{}).Put(QuotaKey("acme"), encodeJSON(Quota{Tenant: "acme", MaxSessions: 4})))
	if err := s.Compact(); err != nil {
		f.Fatal(err)
	}
	s.Commit((&Txn{}).Put(OpKey(1), encodeJSON(Op{ID: 1, Kind: OpQuotaSet, State: StatePending})))
	s.Close()
	snap, _ := os.ReadFile(filepath.Join(seedDir, snapName))
	wal, _ := os.ReadFile(filepath.Join(seedDir, walName))
	f.Add(snap, wal)
	f.Add([]byte{}, wal)
	f.Add(snap, []byte{})
	f.Add(snap, append(append([]byte{}, wal...), []byte("torn-tail")...))

	f.Fuzz(func(t *testing.T, snapshot, walBytes []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("Open = untyped error %v", err)
			}
			return
		}
		state1 := s.List("")
		if err := s.Commit((&Txn{}).Put("post", []byte("recovery"))); err != nil {
			t.Fatalf("post-recovery Commit: %v", err)
		}
		s.Close()

		// Second pass: recovery must be deterministic — same surviving
		// keys, plus the post-recovery commit.
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open after clean close: %v", err)
		}
		defer s2.Close()
		state2 := s2.List("")
		if len(state2) != len(state1)+1 {
			t.Fatalf("second recovery found %d keys, first %d (+1 commit)", len(state2), len(state1))
		}
		for _, kv := range state1 {
			v, ok := s2.Get(kv.Key)
			if !ok || string(v) != string(kv.Val) {
				t.Fatalf("key %q changed across recoveries: %q -> %q (ok=%v)", kv.Key, kv.Val, v, ok)
			}
		}
	})
}

// FuzzDecodeOpRecord feeds arbitrary bytes to the pending-op record
// decoder and the store's gob record decoders: a typed error or
// success, never a panic — these feed on disk bytes.
func FuzzDecodeOpRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeJSON(Op{ID: 7, Kind: OpDeviceDrain, State: StatePending, Device: 1}))
	f.Add(encodeJSON(Quota{Tenant: "acme", MaxSessions: 4, HostBytes: 1 << 20}))
	if p, err := wal.EncodeGob(txnRec{Puts: []kvRec{{Key: "a", Val: []byte("1")}}, Deletes: []string{"b"}}); err == nil {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var op Op
		_ = decodeJSON(data, &op)
		var q Quota
		_ = decodeJSON(data, &q)
		for _, v := range []any{new(txnRec), new(kvRec)} {
			_ = wal.DecodeGob(data, v) // must not panic (hostile gob streams panic internally)
		}
	})
}
