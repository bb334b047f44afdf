package core

import (
	"fmt"
	"slices"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/failover"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
	"gvrt/internal/wal"
)

// This file implements journaled live context migration (DESIGN.md §13):
// the source checkpoints and exports its session's image, ships it to a
// peer over the failover wire protocol — only the chunks the target did
// not already spool in a prior partial transfer cross the wire — and,
// once the target commits the import, deposes the local copy so every
// later mutating call on the connection is fenced. The target records
// the import as a pending operation, so a crash mid-import is resumable
// (live retry reuses the spooled chunks) or cleanly aborted (boot-time
// recovery resolves the record).

// migrateImport is the target side's in-progress transfer state, held
// on the serving connection's context between Hello and Commit.
type migrateImport struct {
	hello failover.Hello
	spool *failover.Spool
	// need maps every chunk of the manifest to its content ref, for
	// verifying arriving chunk frames against what Hello promised.
	need map[failover.ChunkID]failover.ChunkRef
}

// migrateSession is the source-side driver for a MigrateCall: it ships
// this connection's session to the node at target. Caller holds ctx.mu;
// the fence already passed for the enclosing call.
func (rt *Runtime) migrateSession(ctx *Context, target string) (err error) {
	rt.migStarted.Add(1)
	start := rt.clock.Now()
	sp := rt.beginSpan("migrate", ctx.id, ctx.curSpan)
	var shipped int64
	defer func() {
		if err != nil {
			rt.migAborted.Add(1)
		}
		sp.end(-1, fmt.Sprintf("to %s, %dB shipped", target, shipped), err)
	}()

	// Flush device-dirty state and journal the image, so the exported
	// image is the durable checkpoint and the replay log is empty.
	if err := rt.checkpoint(ctx); err != nil {
		return err
	}
	img, err := rt.mm.ExportContext(ctx.id)
	if err != nil {
		return err
	}
	hello := failover.NewHello(rt.cfg.node(), ctx.leaseEpoch.Load(),
		ckptlog.ImageRecord{Image: *img, Pending: slices.Clone(ctx.replay)})

	conn, err := transport.Dial(target)
	if err != nil {
		return err
	}
	defer conn.Close()
	var seq uint64
	send := func(kind uint8, msg any) (wal.Frame, error) {
		f := wal.Frame{Kind: kind, ID: ctx.id, Seq: seq}
		seq++
		if msg != nil {
			p, err := wal.EncodeGob(msg)
			if err != nil {
				return wal.Frame{}, err
			}
			f.Payload = p
		}
		return rt.sendMigFrame(conn, f)
	}

	reply, err := send(failover.FrameHello, hello)
	if err != nil {
		return err
	}
	if reply.Kind != failover.FrameNeed {
		return fmt.Errorf("core: migrate: unexpected %d reply to hello: %w", reply.Kind, api.ErrInvalidValue)
	}
	var need failover.Need
	if err := wal.DecodeGob(reply.Payload, &need); err != nil {
		return err
	}

	// Ship only the chunks the target asked for (resumable offsets made
	// the rest unnecessary).
	for _, id := range need.Chunks {
		if int(id.Entry) < 0 || int(id.Entry) >= len(img.Entries) {
			return fmt.Errorf("core: migrate: target needs unknown entry %d: %w", id.Entry, api.ErrInvalidValue)
		}
		data := failover.ChunkAt(img.Entries[id.Entry].Data, int(id.Index))
		if len(data) == 0 {
			return fmt.Errorf("core: migrate: target needs unknown chunk %d.%d: %w", id.Entry, id.Index, api.ErrInvalidValue)
		}
		if _, err := send(failover.FrameChunk, failover.Chunk{ID: id, Data: data}); err != nil {
			return err
		}
		shipped += int64(len(data))
	}

	reply, err = send(failover.FrameCommit, nil)
	if err != nil {
		return err
	}
	var res failover.Result
	if reply.Kind != failover.FrameResult || wal.DecodeGob(reply.Payload, &res) != nil {
		return fmt.Errorf("core: migrate: malformed commit reply: %w", api.ErrInvalidValue)
	}
	if res.Code != 0 {
		return fmt.Errorf("core: migrate: target refused import: %s: %w", res.Detail, api.Error(res.Code))
	}

	// Committed: ownership moves. Release the lease first (the target or
	// the resuming client re-acquires it fresh), then depose this
	// connection so no later mutating call can touch the moved state.
	if t := rt.cfg.Leases; t != nil {
		t.Release(ctx.id, rt.cfg.node())
	}
	ctx.deposed.Store(true)
	if j := rt.journal; j != nil {
		// The session's durable home is the target's journal now.
		j.ContextReleased(ctx.id)
	}
	rt.migCompleted.Add(1)
	rt.timings.MigrationDur.Observe(int64(rt.clock.Now() - start))
	rt.timings.MigrationBytes.Observe(shipped)
	if ctx.tm != nil {
		ctx.tm.AddMigrationBytes(shipped)
	}
	rt.event(trace.KindCrossMigration, ctx.id, 0, -1,
		fmt.Sprintf("out to %s: %d/%d bytes shipped", target, shipped, hello.TotalBytes))
	rt.logf("ctx %d migrated to %s (%d of %d bytes shipped in %d chunks)",
		ctx.id, target, shipped, hello.TotalBytes, len(need.Chunks))
	return nil
}

// sendMigFrame ships one wire frame to the target and decodes the
// response frame from the reply. The transfer fault hook fires per
// frame: an injected crash kills the source mid-stream, an injected
// error or drop models a partition.
func (rt *Runtime) sendMigFrame(conn transport.Conn, f wal.Frame) (wal.Frame, error) {
	if h := rt.migXferHook; h != nil {
		dec := h.Check()
		if dec.Crash {
			rt.flightCrashDump()
			ckptlog.Die()
		}
		if dec.Delay > 0 {
			rt.clock.Sleep(dec.Delay)
		}
		if dec.Err != nil {
			return wal.Frame{}, dec.Err
		}
		if dec.Drop {
			return wal.Frame{}, api.ErrConnectionClosed
		}
	}
	reply, err := conn.Call(api.MigrateFrameCall{Frame: wal.EncodeFrame(nil, f)})
	if err != nil {
		return wal.Frame{}, err
	}
	if err := reply.Code.Err(); err != nil {
		return wal.Frame{}, err
	}
	rf, _, class := wal.DecodeFrame(reply.Data)
	if class != wal.OK {
		return wal.Frame{}, fmt.Errorf("core: migrate: bad response frame: %w", api.ErrInvalidValue)
	}
	return rf, nil
}

// handleMigrateFrame is the target side: it services one wire frame
// arriving on a serving connection. Caller holds ctx.mu (the serving
// connection's own context — not the session being imported).
func (rt *Runtime) handleMigrateFrame(ctx *Context, raw []byte) api.Reply {
	if h := rt.migImportHook; h != nil {
		dec := h.Check()
		if dec.Crash {
			rt.flightCrashDump()
			ckptlog.Die()
		}
		if dec.Delay > 0 {
			rt.clock.Sleep(dec.Delay)
		}
		if dec.Corrupt && len(raw) > 0 {
			raw = append([]byte(nil), raw...)
			raw[len(raw)/2] ^= 0xff
		}
		if dec.Err != nil {
			return api.Reply{Code: api.Code(dec.Err)}
		}
	}
	f, _, class := wal.DecodeFrame(raw)
	if class != wal.OK {
		// Torn or corrupt frame: reject before any byte can reach an
		// imported image. The source retries or aborts; the spool keeps
		// every chunk that arrived intact.
		return api.Reply{Code: api.ErrInvalidValue}
	}
	switch f.Kind {
	case failover.FrameHello:
		return rt.migrateHello(ctx, f)
	case failover.FrameChunk:
		return rt.migrateChunk(ctx, f)
	case failover.FrameCommit:
		return rt.migrateCommit(ctx, f)
	default:
		return api.Reply{Code: api.ErrInvalidValue}
	}
}

func frameReply(session int64, kind uint8, msg any) api.Reply {
	p, err := wal.EncodeGob(msg)
	if err != nil {
		return api.Reply{Code: api.Code(err)}
	}
	return api.Reply{Data: wal.EncodeFrame(nil, wal.Frame{Kind: kind, ID: session, Payload: p})}
}

func (rt *Runtime) migrateHello(ctx *Context, f wal.Frame) api.Reply {
	var hello failover.Hello
	if err := wal.DecodeGob(f.Payload, &hello); err != nil {
		return api.Reply{Code: api.ErrInvalidValue}
	}
	session := hello.Record.Image.CtxID
	if session != f.ID || len(hello.Chunks) != len(hello.Record.Image.Entries) {
		return api.Reply{Code: api.ErrInvalidValue}
	}
	if rt.hasSession(session) {
		return api.Reply{Code: api.ErrSessionClaimed}
	}
	if mi := ctx.migrate; mi != nil && mi.spool != nil {
		// A fresh Hello supersedes any half-done transfer on this
		// connection; keep its spool on disk for a same-epoch resume.
		mi.spool.Close()
	}
	total := 0
	for _, refs := range hello.Chunks {
		total += len(refs)
	}
	spool, err := failover.OpenSpool(rt.cfg.MigrateDir, failover.PendingRecord{
		Session: session,
		Owner:   hello.Owner,
		Epoch:   hello.Epoch,
		Total:   total,
	})
	if err != nil {
		return api.Reply{Code: api.Code(err)}
	}
	mi := &migrateImport{
		hello: hello,
		spool: spool,
		need:  make(map[failover.ChunkID]failover.ChunkRef, total),
	}
	var need failover.Need
	for i, refs := range hello.Chunks {
		for k, ref := range refs {
			id := failover.ChunkID{Entry: int32(i), Index: int32(k)}
			mi.need[id] = ref
			if data, ok := spool.Get(id); ok {
				if failover.VerifyChunk(ref, data) {
					// Spooled by a previous attempt at this epoch — the
					// resumable offset: don't ask for it again.
					continue
				}
				// Disk bytes get the same check as wire bytes: a spooled
				// chunk that does not match THIS manifest is re-requested.
				spool.Drop(id)
			}
			need.Chunks = append(need.Chunks, id)
		}
	}
	ctx.migrate = mi
	rt.logf("import of session %d from %s: need %d of %d chunks (%d spooled)",
		session, hello.Owner, len(need.Chunks), total, total-len(need.Chunks))
	return frameReply(session, failover.FrameNeed, need)
}

func (rt *Runtime) migrateChunk(ctx *Context, f wal.Frame) api.Reply {
	mi := ctx.migrate
	if mi == nil || f.ID != mi.hello.Record.Image.CtxID {
		return api.Reply{Code: api.ErrInvalidValue}
	}
	var c failover.Chunk
	if err := wal.DecodeGob(f.Payload, &c); err != nil {
		return api.Reply{Code: api.ErrInvalidValue}
	}
	ref, ok := mi.need[c.ID]
	if !ok || !failover.VerifyChunk(ref, c.Data) {
		// Unannounced chunk, or bytes that don't match the manifest's
		// hash/length/CRC — poisoned; refuse it.
		return api.Reply{Code: api.ErrInvalidValue}
	}
	if err := mi.spool.Put(c.ID, c.Data); err != nil {
		return api.Reply{Code: api.Code(err)}
	}
	return frameReply(f.ID, failover.FrameResult, failover.Result{})
}

func (rt *Runtime) migrateCommit(ctx *Context, f wal.Frame) api.Reply {
	mi := ctx.migrate
	if mi == nil || f.ID != mi.hello.Record.Image.CtxID {
		return api.Reply{Code: api.ErrInvalidValue}
	}
	refuse := func(err error, detail string) api.Reply {
		rt.migAborted.Add(1)
		rt.logf("import of session %d refused: %s: %v", f.ID, detail, err)
		return frameReply(f.ID, failover.FrameResult, failover.Result{
			Code:   int32(api.Code(err)),
			Detail: detail,
		})
	}
	rec, err := mi.hello.Assemble(mi.spool.Get)
	if err != nil {
		return refuse(err, "image incomplete")
	}
	if err := rt.adoptImage(rec, "migrated in from "+mi.hello.Owner); err != nil {
		return refuse(err, "import failed")
	}
	mi.spool.Resolve()
	ctx.migrate = nil
	return frameReply(f.ID, failover.FrameResult, failover.Result{})
}
