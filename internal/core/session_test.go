package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/memmgr"
)

// TestNodeRestartResume is the §4.6 full-restart scenario end to end,
// the graceful way: an application computes on node A, the node
// compacts and closes its journal with the client still connected and
// goes down, a fresh node recovers the directory, and the application —
// using the same virtual pointers — resumes and finishes with bit-exact
// data, every acknowledged launch visible.
func TestNodeRestartResume(t *testing.T) {
	dir := t.TempDir()
	env1, j1 := bootJournaled(t, dir, Config{})
	c1 := env1.client()
	if err := c1.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c1.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.MemcpyHD(p, []byte{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c1.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}); err != nil {
			t.Fatal(err)
		}
	}
	session, err := c1.SessionID()
	if err != nil || session == 0 {
		t.Fatalf("SessionID = %d, %v", session, err)
	}
	shutDown(t, env1, j1, c1)

	// A fresh node recovers the journal.
	env2, _ := bootJournaled(t, dir, Config{})
	if got := env2.rt.OrphanSessions(); len(got) != 1 || got[0] != session {
		t.Fatalf("OrphanSessions = %v, want [%d]", got, session)
	}

	// The application reconnects, resumes, and continues with the SAME
	// virtual pointer.
	c2 := env2.client()
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 4 total increments across the restart.
	want := []byte{14, 24, 34}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("data after restart = %v, want %v", out, want)
		}
	}
	if len(env2.rt.OrphanSessions()) != 0 {
		t.Error("session still orphaned after resume")
	}
}

func TestResumeValidation(t *testing.T) {
	env, session := restartedWithOrphan(t, []byte{7})
	c := env.client()
	defer c.Close()
	// Unknown session.
	if err := c.Resume(session + 999); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("Resume(unknown) err = %v", err)
	}
	// Resume after allocating is rejected, and costs the orphan nothing.
	if _, err := c.Malloc(16); err != nil {
		t.Fatal(err)
	}
	if err := c.Resume(session); !errors.Is(err, api.ErrInvalidValue) {
		t.Errorf("Resume after Malloc err = %v", err)
	}
	if got := env.rt.OrphanSessions(); len(got) != 1 || got[0] != session {
		t.Errorf("OrphanSessions after refused resumes = %v, want [%d]", got, session)
	}
}

// TestRestoreRejectsDuplicateAndGarbage: a session this node already
// knows — orphaned, then claimed — cannot be installed a second time,
// and a journal file of garbage recovers to nothing instead of failing
// the boot (FuzzRecover in internal/ckptlog holds the general case).
func TestRestoreRejectsDuplicateAndGarbage(t *testing.T) {
	env, session := restartedWithOrphan(t, []byte{7})
	dup := &ckptlog.ImageRecord{Image: memmgr.ContextImage{CtxID: session}}
	if err := env.rt.adoptImage(dup, "again"); err != api.ErrSessionClaimed {
		t.Errorf("second adopt of an orphan: err = %v, want ErrSessionClaimed", err)
	}
	c := env.client()
	defer c.Close()
	if err := c.Resume(session); err != nil {
		t.Fatal(err)
	}
	if err := env.rt.adoptImage(dup, "again"); err != api.ErrSessionClaimed {
		t.Errorf("adopt of a claimed session: err = %v, want ErrSessionClaimed", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), []byte(strings.Repeat("junk ", 64)), 0o644); err != nil {
		t.Fatal(err)
	}
	garbage, _ := bootJournaled(t, dir, Config{})
	if got := garbage.rt.OrphanSessions(); len(got) != 0 {
		t.Errorf("garbage journal recovered sessions %v", got)
	}
}

// TestRefusedImportLeavesNothingBehind: an image the target cannot make
// durable is refused whole. The source is told the import failed and
// keeps ownership, so the target must keep nothing — no resumable
// orphan, no reserved host bytes, no memory of the session.
func TestRefusedImportLeavesNothingBehind(t *testing.T) {
	src := newEnv(t, Config{NodeName: "src"}, smallSpec(1<<20, 1))
	dst, j := bootJournaled(t, t.TempDir(), Config{NodeName: "dst", SessionBase: 1 << 20, MigrateDir: t.TempDir()})
	addr := dst.listen(t)
	j.Close() // the target's disk is gone: nothing it is handed can be made durable

	c1 := src.client()
	defer c1.Close()
	p, err := c1.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.MemcpyHD(p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	session, err := c1.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Migrate(addr); err == nil {
		t.Fatal("migration into a node with a dead journal succeeded")
	}
	if err := c1.MemcpyHD(p, []byte{4}); err != nil {
		t.Fatalf("source lost the session it was told to keep: %v", err)
	}
	if got := dst.rt.OrphanSessions(); len(got) != 0 {
		t.Errorf("refused import left orphans %v", got)
	}
	if got := dst.rt.mm.Stats().HostBytesInUse; got != 0 {
		t.Errorf("refused import left %d host bytes reserved", got)
	}
	c2 := dst.client()
	defer c2.Close()
	if err := c2.Resume(session); err != api.ErrInvalidValue {
		t.Errorf("Resume of a refused import: err = %v, want ErrInvalidValue", err)
	}
}
