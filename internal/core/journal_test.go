package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/frontend"
)

// openJournal opens (or re-opens) the journal directory and fails the
// test on error.
func openJournal(t *testing.T, dir string) (*ckptlog.Journal, *ckptlog.Recovered) {
	t.Helper()
	j, rec, err := ckptlog.Open(dir, ckptlog.Options{})
	if err != nil {
		t.Fatalf("ckptlog.Open: %v", err)
	}
	return j, rec
}

// bootJournaled boots a runtime over the journal in dir the way gvrtd
// does: open, recover, attach.
func bootJournaled(t *testing.T, dir string, cfg Config) (*testEnv, *ckptlog.Journal) {
	t.Helper()
	j, rec := openJournal(t, dir)
	env := newEnv(t, cfg, smallSpec(1<<20, 1))
	if err := env.rt.RecoverFromJournal(rec); err != nil {
		t.Fatal(err)
	}
	if err := env.rt.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	return env, j
}

// shutDown is gvrtd's graceful exit: with the clients still connected,
// fold the journal into one snapshot and close it, then let everything
// else go. Nothing after the close reaches the disk, so the
// connections' teardown cannot retire their sessions.
func shutDown(t *testing.T, env *testEnv, j *ckptlog.Journal, clients ...*frontend.Client) {
	t.Helper()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.Close()
	}
	env.rt.Close()
}

// restartedWithOrphan runs one session that writes data to a 16-byte
// buffer on a journaled node, restarts the node gracefully and returns
// the fresh runtime holding that session as an unclaimed orphan.
func restartedWithOrphan(t *testing.T, data []byte) (*testEnv, int64) {
	t.Helper()
	dir := t.TempDir()
	env1, j1 := bootJournaled(t, dir, Config{})
	c := env1.client()
	p, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, data); err != nil {
		t.Fatal(err)
	}
	session, err := c.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	shutDown(t, env1, j1, c)
	env2, _ := bootJournaled(t, dir, Config{})
	return env2, session
}

// TestJournalCrashRecoveryResume is the tentpole scenario end to end: a
// daemon with a journal serves a client through writes, a checkpoint and
// more kernel launches, then dies without any graceful state save. A
// fresh daemon recovers the journal, the client resumes its session and
// reads back data reflecting every acknowledged launch — the
// post-checkpoint ones replayed from the journal's pending list.
func TestJournalCrashRecoveryResume(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openJournal(t, dir)
	if len(rec1.Images) != 0 {
		t.Fatalf("fresh journal recovered %d images", len(rec1.Images))
	}

	env1 := newEnv(t, Config{}, smallSpec(1<<20, 1))
	if err := env1.rt.RecoverFromJournal(rec1); err != nil {
		t.Fatal(err)
	}
	if err := env1.rt.AttachJournal(j1); err != nil {
		t.Fatal(err)
	}
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
	inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}
	for i := 0; i < 2; i++ {
		if err := c1.Launch(inc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c1.Launch(inc); err != nil {
			t.Fatal(err)
		}
	}
	session, err := c1.SessionID()
	if err != nil || session == 0 {
		t.Fatalf("SessionID = %d, %v", session, err)
	}

	// Crash: freeze the journal (everything acknowledged is already
	// durable; nothing after this point reaches disk), then let the
	// connection die. The teardown's context-release record is dropped by
	// the dead journal — exactly what a SIGKILL would have done.
	j1.Close()
	c1.Close()
	env1.rt.Close()

	// A fresh daemon recovers from the same directory.
	j2, rec2 := openJournal(t, dir)
	if len(rec2.Images) != 1 || rec2.Images[0].CtxID != session {
		t.Fatalf("recovered images = %+v, want one for ctx %d", rec2.Images, session)
	}
	if got := len(rec2.Pending[session]); got != 3 {
		t.Fatalf("recovered %d pending kernels, want 3", got)
	}
	if len(rec2.Quarantined) != 0 || rec2.TornBytes != 0 {
		t.Fatalf("clean journal recovered with quarantine %v, torn %d",
			rec2.Quarantined, rec2.TornBytes)
	}
	env2 := newEnv(t, Config{}, smallSpec(1<<20, 1))
	if err := env2.rt.RecoverFromJournal(rec2); err != nil {
		t.Fatal(err)
	}
	if err := env2.rt.AttachJournal(j2); err != nil {
		t.Fatal(err)
	}
	c2 := env2.client()
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	// The read triggers the lazy §4.6 recovery: the three pending kernels
	// replay over the checkpointed image before any byte is served.
	out, err := c2.MemcpyDH(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{15, 25, 35} // seed + 5 acknowledged increments
	if !bytes.Equal(out, want) {
		t.Fatalf("data after crash recovery = %v, want %v", out, want)
	}
	// The session is fully live again: further launches work and commit.
	if err := c2.Launch(inc); err != nil {
		t.Fatal(err)
	}
	out, err = c2.MemcpyDH(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want = []byte{16, 26, 36}
	if !bytes.Equal(out, want) {
		t.Fatalf("data after post-recovery launch = %v, want %v", out, want)
	}
	if len(env2.rt.OrphanSessions()) != 0 {
		t.Error("session still orphaned after resume")
	}
}

// TestAttachJournalSeedsLiveState covers first enablement of the journal
// over a runtime that already holds state — including a context with
// device-dirty entries, which AttachJournal must checkpoint-flush before
// seeding (ExportContext refuses dirty entries).
func TestAttachJournalSeedsLiveState(t *testing.T) {
	env1 := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c1 := env1.client()
	if err := c1.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c1.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.MemcpyHD(p, []byte{50, 60}); err != nil {
		t.Fatal(err)
	}
	inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{2}}
	if err := c1.Launch(inc); err != nil {
		t.Fatal(err)
	}
	session, err := c1.SessionID()
	if err != nil {
		t.Fatal(err)
	}

	// The launch left the entry device-dirty; attaching must flush it.
	dir := t.TempDir()
	j1, _ := openJournal(t, dir)
	if err := env1.rt.AttachJournal(j1); err != nil {
		t.Fatalf("AttachJournal over dirty context: %v", err)
	}
	if !j1.HasContext(session) {
		t.Fatal("journal not seeded with the live context")
	}
	// One more launch commits through the now-attached journal.
	if err := c1.Launch(inc); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	c1.Close()
	env1.rt.Close()

	// Recovery sees the attach-time image plus one pending kernel.
	j2, rec := openJournal(t, dir)
	if len(rec.Images) != 1 || len(rec.Pending[session]) != 1 {
		t.Fatalf("recovered %d images, %d pending; want 1, 1",
			len(rec.Images), len(rec.Pending[session]))
	}
	env2 := newEnv(t, Config{}, smallSpec(1<<20, 1))
	if err := env2.rt.RecoverFromJournal(rec); err != nil {
		t.Fatal(err)
	}
	if err := env2.rt.AttachJournal(j2); err != nil {
		t.Fatal(err)
	}
	c2 := env2.client()
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{52, 62}; !bytes.Equal(out, want) {
		t.Fatalf("data after attach+crash recovery = %v, want %v", out, want)
	}
}

// TestConcurrentResumeSingleWinner races many connections for the same
// persisted session: exactly one must win; every loser must see the
// typed ErrSessionClaimed, not a generic failure. Run under -race.
func TestConcurrentResumeSingleWinner(t *testing.T) {
	env2, session := restartedWithOrphan(t, []byte{7})
	const claimants = 8
	clients := make([]*frontend.Client, claimants)
	errs := make([]error, claimants)
	for i := range clients {
		clients[i] = env2.client()
		defer clients[i].Close()
	}
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = clients[i].Resume(session)
		}(i)
	}
	wg.Wait()
	winners, claimed := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			winners++
		case errors.Is(err, api.ErrSessionClaimed):
			claimed++
		default:
			t.Errorf("loser got %v, want ErrSessionClaimed", err)
		}
	}
	if winners != 1 || claimed != claimants-1 {
		t.Fatalf("winners = %d, claimed losers = %d; want 1 and %d",
			winners, claimed, claimants-1)
	}
	// Re-resuming after everyone settled is still the typed error.
	late := env2.client()
	defer late.Close()
	if err := late.Resume(session); !errors.Is(err, api.ErrSessionClaimed) {
		t.Errorf("late Resume err = %v, want ErrSessionClaimed", err)
	}
}

// TestExportRefusesDirtyEntries pins the invariant the journal depends
// on: a context image can never capture stale swap data. A direct export
// of a device-dirty context fails loudly; a node restart over the very
// same state — the journal holds the pre-kernel image plus the kernel,
// never the stale copy — round-trips the bytes.
func TestExportRefusesDirtyEntries(t *testing.T) {
	dir := t.TempDir()
	env1, j1 := bootJournaled(t, dir, Config{})
	c := env1.client()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	session, err := c.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env1.rt.mm.ExportContext(sessionCtx(t, env1, c).space); err == nil {
		t.Fatal("ExportContext captured a device-dirty context")
	} else if !strings.Contains(err.Error(), "checkpoint before export") {
		t.Fatalf("dirty export error = %v", err)
	}
	shutDown(t, env1, j1, c)

	env2, _ := bootJournaled(t, dir, Config{})
	c2 := env2.client()
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{2, 3, 4}; !bytes.Equal(out, want) {
		t.Fatalf("restored data = %v, want %v", out, want)
	}
}
