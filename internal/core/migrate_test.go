package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/failover"
	"gvrt/internal/faultinject"
	"gvrt/internal/memmgr"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
	"gvrt/internal/wal"
)

// listen serves the runtime on a real TCP listener and returns its
// address — migration targets are dialed by address.
func (e *testEnv) listen(t *testing.T) string {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			s, err := l.Accept()
			if err != nil {
				return
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.rt.Serve(s)
			}()
		}
	}()
	return l.Addr()
}

// leaseTable builds a shared lease table on its own clock with a TTL
// long enough that nothing expires mid-test.
func leaseTable() *failover.Table {
	return failover.NewTable(time.Hour, sim.NewClock(1e-7).Now)
}

// migPattern fills n bytes with a deterministic pattern.
func migPattern(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	return buf
}

// TestDeposedOwnerFenced is the dedicated fencing regression: once a
// peer takes over the session's lease, every mutating call from the old
// owner — including an in-flight launch — is rejected with ErrFenced.
func TestDeposedOwnerFenced(t *testing.T) {
	table := leaseTable()
	env := newEnv(t, Config{Leases: table, NodeName: "src"}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
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
	inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{3}}
	if err := c.Launch(inc); err != nil {
		t.Fatal(err)
	}
	session, err := c.SessionID()
	if err != nil {
		t.Fatal(err)
	}

	// A peer takes the lease over: revoked, then claimed at epoch+1.
	table.Revoke(session)
	if _, _, err := table.Claim(session, "peer"); err != nil {
		t.Fatal(err)
	}

	if err := c.Launch(inc); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("launch after lease takeover err = %v, want ErrFenced", err)
	}
	if err := c.MemcpyHD(p, []byte{9}); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("memcpy after lease takeover err = %v, want ErrFenced", err)
	}
	if m := env.rt.Metrics(); m.FenceRejections < 2 {
		t.Errorf("FenceRejections = %d, want >= 2", m.FenceRejections)
	}
}

// TestLeaseExpiryRaceFenced drives the injected lease-expiry race: the
// fault plane revokes the session's lease the instant before the fence
// check of the Nth mutating call, so an acknowledged-in-flight write is
// rejected exactly as if a peer stole the lease mid-call.
func TestLeaseExpiryRaceFenced(t *testing.T) {
	plane := faultinject.New(faultinject.Plan{
		Name: "lease-race",
		Seed: 1,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointLeaseCheck, AtNth: 3, Action: faultinject.ActError},
		},
	})
	env := newEnv(t, Config{Leases: leaseTable(), NodeName: "src", Faults: plane},
		smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if _, err := c.Malloc(16); err != nil { // fence check 1
		t.Fatal(err)
	}
	if _, err := c.Malloc(16); err != nil { // fence check 2
		t.Fatal(err)
	}
	if _, err := c.Malloc(16); !errors.Is(err, api.ErrFenced) { // check 3: race fires
		t.Fatalf("malloc under injected lease race err = %v, want ErrFenced", err)
	}
	// The revocation is sticky — the connection stays fenced.
	if _, err := c.Malloc(16); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("malloc after injected lease race err = %v, want ErrFenced", err)
	}
}

// TestMigrationEndToEnd ships a live session between two runtimes over
// TCP: the source checkpoints, exports, and deposes itself; the target
// imports under a pending-op record and serves the client's resume with
// bit-exact data; the deposed source rejects late writes with ErrFenced.
func TestMigrationEndToEnd(t *testing.T) {
	table := leaseTable()
	src := newEnv(t, Config{Leases: table, NodeName: "src"}, smallSpec(1<<20, 1))
	dst := newEnv(t, Config{
		Leases: table, NodeName: "dst", SessionBase: 1 << 20, MigrateDir: t.TempDir(),
	}, smallSpec(1<<20, 1))
	addr := dst.listen(t)

	c1 := src.client()
	defer c1.Close()
	if err := c1.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	data := migPattern(160 << 10) // 2.5 wire chunks
	p, err := c1.Malloc(uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.MemcpyHD(p, data); err != nil {
		t.Fatal(err)
	}
	inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{8}}
	for i := 0; i < 2; i++ {
		if err := c1.Launch(inc); err != nil {
			t.Fatal(err)
		}
	}
	session, err := c1.SessionID()
	if err != nil {
		t.Fatal(err)
	}

	if err := c1.Migrate(addr); err != nil {
		t.Fatalf("Migrate: %v", err)
	}

	// The deposed source rejects the late write — the moved state is
	// unreachable from the old owner.
	if err := c1.Launch(inc); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("launch on deposed source err = %v, want ErrFenced", err)
	}
	ms := src.rt.Metrics()
	if ms.MigrationsStarted != 1 || ms.MigrationsCompleted != 1 || ms.MigrationsAborted != 0 {
		t.Fatalf("source migration counters = %d/%d/%d, want 1/1/0",
			ms.MigrationsStarted, ms.MigrationsCompleted, ms.MigrationsAborted)
	}
	if got := dst.rt.OrphanSessions(); len(got) != 1 || got[0] != session {
		t.Fatalf("target orphans = %v, want [%d]", got, session)
	}
	if l, ok := table.Lookup(session); !ok || l.Owner != "dst" {
		t.Fatalf("lease after migration = %+v, %v; want owned by dst", l, ok)
	}
	// The pending-op record resolved on commit: nothing to abort later.
	if ops := failover.PendingOps(dst.rt.cfg.MigrateDir); len(ops) != 0 {
		t.Fatalf("unresolved pending ops after commit: %+v", ops)
	}

	// The client reconnects to the target and resumes with the SAME
	// virtual pointer; data reflects both pre-migration launches.
	c2 := dst.client()
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatalf("Resume on target: %v", err)
	}
	if err := c2.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Launch(inc); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		want[i] += 3
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("data after migration differs (first 16: got %v, want %v)", out[:16], want[:16])
	}
}

// TestMigrationResumableAfterPartition: a transfer severed mid-stream
// leaves its spooled chunks on the target; the retry ships ONLY the
// missing tail (resumable offsets), and the import commits bit-exact.
func TestMigrationResumableAfterPartition(t *testing.T) {
	plane := faultinject.New(faultinject.Plan{
		Name: "mig-partition",
		Seed: 1,
		Rules: []faultinject.Rule{
			// Frame 1 is Hello, frames 2.. are chunks: sever after one
			// chunk crossed.
			{Point: faultinject.PointMigrateTransfer, AtNth: 3, Action: faultinject.ActError},
		},
	})
	table := leaseTable()
	src := newEnv(t, Config{Leases: table, NodeName: "src", Faults: plane}, smallSpec(1<<20, 1))
	dst := newEnv(t, Config{
		Leases: table, NodeName: "dst", SessionBase: 1 << 20, MigrateDir: t.TempDir(),
	}, smallSpec(1<<20, 1))
	addr := dst.listen(t)

	c1 := src.client()
	defer c1.Close()
	data := migPattern(192 << 10) // 3 wire chunks
	p, err := c1.Malloc(uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.MemcpyHD(p, data); err != nil {
		t.Fatal(err)
	}
	session, err := c1.SessionID()
	if err != nil {
		t.Fatal(err)
	}

	if err := c1.Migrate(addr); err == nil {
		t.Fatal("migration survived an injected mid-stream partition")
	}
	if m := src.rt.Metrics(); m.MigrationsAborted != 1 {
		t.Fatalf("MigrationsAborted = %d, want 1", m.MigrationsAborted)
	}
	// The half-done transfer left a pending-op record and its spool.
	if ops := failover.PendingOps(dst.rt.cfg.MigrateDir); len(ops) != 1 || ops[0].Session != session {
		t.Fatalf("pending ops after partition = %+v, want one for session %d", ops, session)
	}

	// Retry: the target's Need excludes the spooled chunk, so strictly
	// fewer bytes cross the wire than the image holds.
	if err := c1.Migrate(addr); err != nil {
		t.Fatalf("retry after partition: %v", err)
	}
	shipped := src.rt.timings.MigrationBytes.Snapshot().Sum
	if shipped >= int64(len(data)) {
		t.Errorf("retry shipped %d bytes, want < %d (spooled chunks reused)", shipped, len(data))
	}
	if ops := failover.PendingOps(dst.rt.cfg.MigrateDir); len(ops) != 0 {
		t.Fatalf("pending ops not resolved by committed retry: %+v", ops)
	}

	c2 := dst.client()
	defer c2.Close()
	if err := c2.Resume(session); err != nil {
		t.Fatal(err)
	}
	out, err := c2.MemcpyDH(p, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("resumed migration corrupted data")
	}
}

// TestMigrateFrameRejectsTornAndCorrupt: hostile or damaged wire frames
// arriving at the import endpoint are rejected before any byte reaches
// an image, and the connection remains usable for a valid transfer.
func TestMigrateFrameRejectsTornAndCorrupt(t *testing.T) {
	dst := newEnv(t, Config{MigrateDir: t.TempDir(), SessionBase: 1 << 20},
		smallSpec(1<<20, 1))
	conn := dst.clientConn()
	defer conn.Close()

	hello, err := wal.EncodeGob(failover.NewHello("src", 0, ckptlog.ImageRecord{Image: memmgr.ContextImage{CtxID: 7}}))
	if err != nil {
		t.Fatal(err)
	}
	valid := wal.EncodeFrame(nil, wal.Frame{Kind: failover.FrameHello, ID: 7, Payload: hello})

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a migration frame at all")},
		{"torn", valid[:len(valid)-3]},
		{"corrupt-payload", flipByte(valid, len(valid)-6)},
		{"corrupt-header", flipByte(valid, 6)},
		{"unknown-kind", wal.EncodeFrame(nil, wal.Frame{Kind: failover.FrameResult + 1, ID: 7, Payload: hello})},
		{"zero-kind", wal.EncodeFrame(nil, wal.Frame{ID: 7, Payload: hello})},
	} {
		reply, err := conn.Call(api.MigrateFrameCall{Frame: tc.frame})
		if err != nil {
			t.Fatalf("%s: transport error: %v", tc.name, err)
		}
		if reply.Code != api.ErrInvalidValue {
			t.Errorf("%s frame: code = %v, want ErrInvalidValue", tc.name, reply.Code)
		}
	}

	// The same connection still imports a well-formed Hello afterwards.
	reply, err := conn.Call(api.MigrateFrameCall{Frame: valid})
	if err != nil || reply.Code != 0 {
		t.Fatalf("valid hello after rejects: code %v, err %v", reply.Code, err)
	}
	rf, _, res := wal.DecodeFrame(reply.Data)
	if res != wal.OK || rf.Kind != failover.FrameNeed {
		t.Fatalf("hello reply frame = %v kind %d, want OK FrameNeed", res, rf.Kind)
	}
}

// TestMigrateHelloReverifiesSpooledChunks: a chunk resumed from the
// spool is disk bytes, and gets the same check as wire bytes — one that
// does not match the manifest of the Hello being served is dropped and
// asked for again, never assembled into the image.
func TestMigrateHelloReverifiesSpooledChunks(t *testing.T) {
	dir := t.TempDir()
	data := bytes.Repeat([]byte("0123456789abcdef"), failover.ChunkSize/16+1) // two chunks
	good, bad := failover.ChunkID{Entry: 0, Index: 1}, failover.ChunkID{Entry: 0, Index: 0}
	rec := failover.PendingRecord{Session: 7, Owner: "src", Epoch: 3, Total: 2}
	spool, err := failover.OpenSpool(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := spool.Put(good, failover.ChunkAt(data, 1)); err != nil {
		t.Fatal(err)
	}
	if err := spool.Put(bad, []byte("what an earlier attempt left behind")); err != nil {
		t.Fatal(err)
	}
	spool.Close()

	dst := newEnv(t, Config{SessionBase: 1 << 20}, smallSpec(1<<20, 1))
	dst.rt.cfg.MigrateDir = dir // set after boot: boot aborts every pending import
	conn := dst.clientConn()
	defer conn.Close()
	hello, err := wal.EncodeGob(failover.NewHello(rec.Owner, rec.Epoch, ckptlog.ImageRecord{Image: memmgr.ContextImage{
		CtxID:   rec.Session,
		Entries: []memmgr.EntryImage{{Size: uint64(len(data)), HasData: true, Data: data}},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Call(api.MigrateFrameCall{Frame: wal.EncodeFrame(nil, wal.Frame{Kind: failover.FrameHello, ID: rec.Session, Payload: hello})})
	if err != nil || reply.Code != 0 {
		t.Fatalf("hello: code %v, err %v", reply.Code, err)
	}
	var need failover.Need
	if rf, _, res := wal.DecodeFrame(reply.Data); res != wal.OK || wal.DecodeGob(rf.Payload, &need) != nil {
		t.Fatalf("hello reply does not decode (%v)", res)
	}
	if len(need.Chunks) != 1 || need.Chunks[0] != bad {
		t.Fatalf("need = %+v, want exactly the mismatching chunk %+v", need.Chunks, bad)
	}
}

// flipByte returns a copy of b with one bit-flipped byte at i.
func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// clientConn opens a raw transport connection served by the runtime,
// for tests that speak the wire protocol directly.
func (e *testEnv) clientConn() transport.Conn {
	c, s := transport.Pipe()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.rt.Serve(s)
	}()
	return c
}
