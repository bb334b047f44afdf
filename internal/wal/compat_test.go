package wal_test

import (
	"os"
	"path/filepath"
	"testing"

	"gvrt/internal/ckptlog"
	"gvrt/internal/ctrlplane"
)

// The directories under testdata/ were written by the last commit before
// this package existed (7fd04ea), by its own ckptlog and ctrlplane: a
// snapshot plus a few log records each. They must keep opening — same
// state, nothing torn, nothing quarantined.

func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata", name, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestParentJournalFixtureOpens(t *testing.T) {
	// Written as: ctx 1 {0x100 alpha} + kernel inc, ctx 2 {0x300 gamma};
	// Compact; then ctx 1 {0x200 beta}, checkpoint ctx 2, kernel dec.
	j, rec, err := ckptlog.Open(copyFixture(t, "ckptlog"), ckptlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec.TornBytes != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("repairs on a clean fixture: torn=%d quarantined=%v", rec.TornBytes, rec.Quarantined)
	}
	if len(rec.Images) != 2 || rec.Images[0].CtxID != 1 || rec.Images[1].CtxID != 2 || rec.MaxCtxID != 2 {
		t.Fatalf("images = %+v, MaxCtxID %d", rec.Images, rec.MaxCtxID)
	}
	e1 := rec.Images[0].Entries
	if len(e1) != 2 || string(e1[0].Data) != "alpha" || string(e1[1].Data) != "beta" || rec.Images[0].NextOff != 512 {
		t.Fatalf("ctx 1 = %+v", rec.Images[0])
	}
	if e2 := rec.Images[1].Entries; len(e2) != 1 || string(e2[0].Data) != "gamma" {
		t.Fatalf("ctx 2 = %+v", rec.Images[1])
	}
	if p := rec.Pending[1]; len(p) != 2 || p[0].Kernel != "inc" || p[1].Kernel != "dec" {
		t.Fatalf("ctx 1 pending = %+v, want inc (snapshot) then dec (journal)", p)
	}
	if p := rec.Pending[2]; len(p) != 0 {
		t.Fatalf("ctx 2 pending = %+v, want none", p)
	}
	// The fence came out of the old header: a new record sorts above it.
	if err := j.KernelCommitted(1, rec.Pending[1][0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestParentStoreFixtureOpens(t *testing.T) {
	// Written as: put tenants/acme; put quotas/acme + tmp; Compact; put
	// devices/0 + delete tmp.
	s, err := ctrlplane.Open(copyFixture(t, "ctrlstore"), ctrlplane.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.TornBytes != 0 || st.Quarantined != 0 || st.Keys != 3 {
		t.Fatalf("stats on a clean fixture = %+v", st)
	}
	for key, want := range map[string]string{
		"tenants/acme": `{"name":"acme"}`,
		"quotas/acme":  `{"max_sessions":4}`,
		"devices/0":    "drained",
	} {
		if v, ok := s.Get(key); !ok || string(v) != want {
			t.Fatalf("key %q = %q (%v), want %q", key, v, ok, want)
		}
	}
	if s.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", s.Seq())
	}
}
