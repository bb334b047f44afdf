package ckptlog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/memmgr"
	"gvrt/internal/wal"
)

func entry(v api.DevPtr, data string) memmgr.EntryImage {
	return memmgr.EntryImage{
		Virtual: v,
		Size:    uint64(len(data)),
		HasData: true,
		Data:    []byte(data),
	}
}

func launch(kernel string, arg api.DevPtr) api.LaunchCall {
	return api.LaunchCall{
		Kernel:  kernel,
		Grid:    api.Dim3{X: 1, Y: 1, Z: 1},
		Block:   api.Dim3{X: 32, Y: 1, Z: 1},
		PtrArgs: []api.DevPtr{arg},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

// populate writes a deterministic two-context workload into a journal:
// ctx 1 with two entries and one pending kernel, ctx 2 with one entry
// and a completed checkpoint.
func populate(t *testing.T, j *Journal) {
	t.Helper()
	j.ContextCreated(1)
	j.ContextCreated(2)
	j.EntryWritten(1, entry(0x100, "alpha"), 256)
	j.EntryWritten(1, entry(0x200, "beta"), 512)
	j.EntryWritten(2, entry(0x300, "gamma"), 256)
	if err := j.KernelCommitted(1, launch("inc", 0x100)); err != nil {
		t.Fatalf("KernelCommitted: %v", err)
	}
	img := &memmgr.ContextImage{CtxID: 2, NextOff: 256, Entries: []memmgr.EntryImage{entry(0x300, "gamma")}}
	if err := j.SnapshotContext(img, nil); err != nil {
		t.Fatalf("SnapshotContext: %v", err)
	}
}

// checkPopulated verifies a Recovered matches what populate wrote.
func checkPopulated(t *testing.T, rec *Recovered) {
	t.Helper()
	if len(rec.Images) != 2 {
		t.Fatalf("recovered %d images, want 2: %+v", len(rec.Images), rec.Images)
	}
	img1, img2 := rec.Images[0], rec.Images[1]
	if img1.CtxID != 1 || img2.CtxID != 2 {
		t.Fatalf("image ctx ids = %d, %d; want 1, 2", img1.CtxID, img2.CtxID)
	}
	if len(img1.Entries) != 2 || string(img1.Entries[0].Data) != "alpha" || string(img1.Entries[1].Data) != "beta" {
		t.Fatalf("ctx 1 entries wrong: %+v", img1.Entries)
	}
	if img1.NextOff != 512 {
		t.Fatalf("ctx 1 NextOff = %d, want 512", img1.NextOff)
	}
	if len(img2.Entries) != 1 || string(img2.Entries[0].Data) != "gamma" {
		t.Fatalf("ctx 2 entries wrong: %+v", img2.Entries)
	}
	if got := rec.Pending[1]; len(got) != 1 || got[0].Kernel != "inc" {
		t.Fatalf("ctx 1 pending = %+v, want one inc launch", got)
	}
	if got := rec.Pending[2]; len(got) != 0 {
		t.Fatalf("ctx 2 pending = %+v, want none (checkpointed)", got)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir, Options{})
	if len(rec.Images) != 0 {
		t.Fatalf("fresh dir recovered %d images", len(rec.Images))
	}
	populate(t, j)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := mustOpen(t, dir, Options{})
	checkPopulated(t, rec2)
	if rec2.TornBytes != 0 || len(rec2.Quarantined) != 0 {
		t.Fatalf("clean reopen reported repairs: torn=%d quarantined=%v", rec2.TornBytes, rec2.Quarantined)
	}
	if rec2.MaxCtxID != 2 {
		t.Fatalf("MaxCtxID = %d, want 2", rec2.MaxCtxID)
	}
}

func TestJournalReleaseDiscards(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	j.ContextReleased(1)
	j.Close()

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Images) != 1 || rec.Images[0].CtxID != 2 {
		t.Fatalf("after release of ctx 1 recovered %+v, want only ctx 2", rec.Images)
	}
	// The ID space must still advance past the released context.
	if rec.MaxCtxID != 2 {
		t.Fatalf("MaxCtxID = %d, want 2", rec.MaxCtxID)
	}
}

func TestJournalFreeDiscardsEntry(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	j.EntryFreed(1, 0x100)
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	j.Close()

	_, rec := mustOpen(t, dir, Options{})
	img1 := rec.Images[0]
	if len(img1.Entries) != 1 || img1.Entries[0].Virtual != 0x200 {
		t.Fatalf("ctx 1 after free = %+v, want only entry 0x200", img1.Entries)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, wal.HeaderLen - 1, wal.HeaderLen + 3} {
		dir := t.TempDir()
		j, _ := mustOpen(t, dir, Options{})
		populate(t, j)
		j.Close()

		// Simulate a crash mid-append: a fresh, partially written frame at
		// the tail.
		path := filepath.Join(dir, layout.Log)
		full := wal.EncodeFrame(nil, wal.Frame{Kind: uint8(RecEntryWritten), ID: 1, Seq: 999, Payload: []byte("partial")})
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[:cut]); err != nil {
			t.Fatal(err)
		}
		f.Close()

		_, rec := mustOpen(t, dir, Options{})
		if rec.TornBytes != int64(cut) {
			t.Fatalf("cut=%d: TornBytes = %d, want %d", cut, rec.TornBytes, cut)
		}
		checkPopulated(t, rec)

		// The truncation must be physical: a third open sees a clean file.
		_, rec3 := mustOpen(t, dir, Options{})
		if rec3.TornBytes != 0 {
			t.Fatalf("cut=%d: second recovery still sees torn tail of %d", cut, rec3.TornBytes)
		}
		checkPopulated(t, rec3)
	}
}

func TestCorruptPayloadQuarantinesOneContext(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	j.Close()

	// Flip one byte inside the payload of ctx 2's entry-written record.
	path := filepath.Join(dir, layout.Log)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, target := 0, -1
	for off < len(data) {
		f, n, res := wal.DecodeFrame(data[off:])
		if res != wal.OK {
			t.Fatalf("pre-corruption journal not clean at %d", off)
		}
		if RecType(f.Kind) == RecEntryWritten && f.ID == 2 {
			target = off + wal.HeaderLen
		}
		off += n
	}
	if target < 0 {
		t.Fatal("no ctx 2 entry-written record found")
	}
	data[target] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Quarantined) != 1 || rec.Quarantined[0].CtxID != 2 {
		t.Fatalf("quarantined = %v, want exactly ctx 2", rec.Quarantined)
	}
	if len(rec.Images) != 1 || rec.Images[0].CtxID != 1 {
		t.Fatalf("recovered %+v, want ctx 1 intact", rec.Images)
	}
	if string(rec.Images[0].Entries[0].Data) != "alpha" {
		t.Fatalf("ctx 1 data damaged: %+v", rec.Images[0].Entries)
	}
	if rec.MaxCtxID != 2 {
		t.Fatalf("MaxCtxID = %d, want 2 (quarantined ids still fence the allocator)", rec.MaxCtxID)
	}
}

func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st, err := os.Stat(filepath.Join(dir, layout.Log))
	if err != nil || st.Size() != 0 {
		t.Fatalf("journal after compaction: size=%v err=%v, want empty", st, err)
	}
	// Post-compaction appends land in the truncated journal and recover.
	j.EntryWritten(1, entry(0x400, "delta"), 1024)
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	j.Close()

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Images) != 2 {
		t.Fatalf("recovered %d images, want 2", len(rec.Images))
	}
	img1 := rec.Images[0]
	if len(img1.Entries) != 3 || string(img1.Entries[2].Data) != "delta" {
		t.Fatalf("ctx 1 after compaction+append = %+v", img1.Entries)
	}
	if got := rec.Pending[1]; len(got) != 1 || got[0].Kernel != "inc" {
		t.Fatalf("pending lost across compaction: %+v", got)
	}
}

// crashSentinel distinguishes the simulated crash from real panics.
type crashSentinel struct{}

// simulateCrashes runs fn with a journal whose OnCrash panics, catching
// the panic — the in-process stand-in for SIGKILL. It returns true if a
// crash fired.
func simulateCrash(t *testing.T, j *Journal, fn func()) (crashed bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(crashSentinel); !ok {
			panic(r)
		}
		crashed = true
		// The "process" died with j.mu held; the instance is dead either
		// way, but unlock so Close in cleanup paths cannot deadlock.
		j.mu.TryLock()
		j.mu.Unlock()
	}()
	fn()
	return false
}

func crashPlan(point faultinject.Point, nth uint64) *faultinject.Plane {
	return faultinject.New(faultinject.Plan{
		Name: "test-crash",
		Rules: []faultinject.Rule{{
			Point:  point,
			AtNth:  nth,
			Action: faultinject.ActCrash,
		}},
	})
}

// TestCompactionCrashAtomicity kills the journal at both mid-compaction
// crash points and at the pre-fsync point, and checks recovery lands on
// a consistent state either way.
func TestCompactionCrashAtomicity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		point faultinject.Point
		nth   uint64
	}{
		{"before-rename", faultinject.PointJournalCompact, 1},
		{"after-rename-before-truncate", faultinject.PointJournalCompact, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{
				Faults:  crashPlan(tc.point, tc.nth),
				OnCrash: func() { panic(crashSentinel{}) },
			})
			populate(t, j)
			if !simulateCrash(t, j, func() { _ = j.Compact() }) {
				t.Fatal("crash point did not fire")
			}

			// Recovery must see exactly the populated state: before the
			// rename the old snapshot + journal hold it; after the rename
			// the new snapshot holds it and the stale journal records sit
			// below the sequence fence (this is the double-apply trap —
			// the pending inc kernel must appear once, not twice).
			_, rec := mustOpen(t, dir, Options{})
			checkPopulated(t, rec)
			if len(rec.Quarantined) != 0 {
				t.Fatalf("crash recovery quarantined %v", rec.Quarantined)
			}
		})
	}
}

// TestPreSyncCrash kills the journal before the commit fsync: the
// unacknowledged kernel may or may not survive (the bytes reached the
// OS), but recovery must not fail and earlier state must be intact.
func TestPreSyncCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{
		Faults:  crashPlan(faultinject.PointJournalPreSync, 3),
		OnCrash: func() { panic(crashSentinel{}) },
	})
	populate(t, j) // syncs #1 (kernel) and #2 (checkpoint)
	crashed := simulateCrash(t, j, func() {
		_ = j.KernelCommitted(1, launch("inc2", 0x200))
	})
	if !crashed {
		t.Fatal("pre-sync crash point did not fire")
	}

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Images) != 2 {
		t.Fatalf("recovered %d images, want 2", len(rec.Images))
	}
	pending := rec.Pending[1]
	switch len(pending) {
	case 1:
		if pending[0].Kernel != "inc" {
			t.Fatalf("pending = %+v", pending)
		}
	case 2:
		// The in-flight record reached the file before the crash: also
		// legal, it was simply never acknowledged.
		if pending[0].Kernel != "inc" || pending[1].Kernel != "inc2" {
			t.Fatalf("pending = %+v", pending)
		}
	default:
		t.Fatalf("pending = %+v, want 1 or 2 kernels", pending)
	}
}

func TestCorruptSnapshotHeaderIsFatal(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	j.Close()

	path := filepath.Join(dir, layout.Snapshot)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0xff // inside the header frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, oerr := Open(dir, Options{})
	if !errors.Is(oerr, ErrCorruptSnapshot) {
		t.Fatalf("Open = %v, want ErrCorruptSnapshot", oerr)
	}
}

func TestCorruptSnapshotImageQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	j.Close()

	// Corrupt ctx 1's image payload inside the snapshot.
	path := filepath.Join(dir, layout.Snapshot)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, target := 0, -1
	for off < len(data) {
		f, n, res := wal.DecodeFrame(data[off:])
		if res != wal.OK {
			t.Fatalf("pre-corruption snapshot not clean at %d", off)
		}
		if RecType(f.Kind) == RecImage && f.ID == 1 {
			target = off + wal.HeaderLen
		}
		off += n
	}
	data[target] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Quarantined) != 1 || rec.Quarantined[0].CtxID != 1 {
		t.Fatalf("quarantined = %v, want exactly ctx 1", rec.Quarantined)
	}
	if len(rec.Images) != 1 || rec.Images[0].CtxID != 2 {
		t.Fatalf("recovered %+v, want ctx 2 intact", rec.Images)
	}
}

func TestStaleCompactionTempRemoved(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	populate(t, j)
	j.Close()
	if err := os.WriteFile(filepath.Join(dir, layout.Tmp), []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	checkPopulated(t, rec)
	if _, err := os.Stat(filepath.Join(dir, layout.Tmp)); !os.IsNotExist(err) {
		t.Fatalf("stale temp still present: %v", err)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{CompactBytes: 1024})
	j.ContextCreated(1)
	for i := 0; i < 64; i++ {
		j.EntryWritten(1, entry(api.DevPtr(0x100+i*0x100), "payload-data"), uint64(256*(i+1)))
		// A kernel commit is the synced record that checks the threshold.
		if err := j.KernelCommitted(1, launch("inc", 0x100)); err != nil {
			t.Fatalf("KernelCommitted: %v", err)
		}
	}
	if got := j.Stats().Compactions; got == 0 {
		t.Fatal("no auto-compaction after 64 synced rounds over a 1KiB threshold")
	}
	j.Close()

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Images) != 1 || len(rec.Images[0].Entries) != 64 {
		t.Fatalf("recovered %+v, want 64 entries", rec.Images)
	}
}

func TestSequenceContinuesAcrossReopen(t *testing.T) {
	for _, corruptTail := range []bool{false, true} {
		dir := t.TempDir()
		j, _ := mustOpen(t, dir, Options{})
		populate(t, j)
		j.Close()

		path := filepath.Join(dir, layout.Log)
		if corruptTail {
			// Damage the last record's payload CRC: the record (ctx 2's
			// checkpoint) is quarantined, but its header verified, so its
			// sequence number is taken and must not be reissued.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		j2, rec := mustOpen(t, dir, Options{})
		if got := len(rec.Quarantined); (got == 1) != corruptTail {
			t.Fatalf("corruptTail=%v: quarantined %v", corruptTail, rec.Quarantined)
		}
		// New records must sort after every recovered one; a sequence reset
		// would make them fall below a later snapshot's fence.
		j2.EntryWritten(1, entry(0x500, "epsilon"), 2048)
		if err := j2.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for off := 0; off < len(data); {
			f, n, res := wal.DecodeFrame(data[off:])
			if res == wal.Torn {
				t.Fatalf("journal torn at %d", off)
			}
			if f.Seq <= last {
				t.Fatalf("corruptTail=%v: sequence %d follows %d at offset %d", corruptTail, f.Seq, last, off)
			}
			last = f.Seq
			off += n
		}
		if err := j2.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		j2.Close()

		_, rec = mustOpen(t, dir, Options{})
		img1 := rec.Images[0]
		if len(img1.Entries) != 3 || string(img1.Entries[2].Data) != "epsilon" {
			t.Fatalf("ctx 1 = %+v, want epsilon entry preserved", img1.Entries)
		}
	}
}
