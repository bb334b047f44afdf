// Package ckptlog is the runtime's crash-consistent durability layer:
// the checkpoint journal, a record schema over the durable log in
// internal/wal.
//
// The paper's §4.6 fault tolerance rests on "the page table + swap area
// are the checkpoint", but an in-memory checkpoint dies with the
// process. This package makes it durable continuously: every mutation
// of the durable state — a page-table entry written or freed, a context
// created or destroyed, a kernel committed, a checkpoint taken — is
// appended to the log as a self-describing record, and the in-memory
// mirror of what the records encode is what compaction folds into a
// snapshot of full ContextImages.
//
// Durability contract: a record is committed once Sync returns — commit
// records (kernel committed, checkpoint, context destroyed) sync before
// the caller acknowledges the operation, so an acknowledged kernel is
// never lost by a crash. Mutation records between commits ride along:
// fsync is ordered, so syncing a commit record makes every earlier
// append durable too.
//
// Recovery contract (Open): wal replays the snapshot and the journal
// into the mirror, truncating a torn tail. What this schema adds is the
// meaning of a damaged record: a frame whose header is intact but whose
// payload fails its CRC (or does not decode) quarantines just that
// frame's context — its state is dropped and later records for it are
// ignored, while every other context is restored.
package ckptlog

import (
	"fmt"

	"gvrt/internal/api"
	"gvrt/internal/memmgr"
)

// RecType identifies one journal record flavour.
type RecType uint8

// Record types. The zero value is invalid so a zeroed frame can never
// masquerade as a real record.
const (
	recInvalid RecType = iota
	// RecSnapshotHeader opens a snapshot file; wal owns its payload (the
	// sequence fence).
	RecSnapshotHeader
	// RecImage is a full per-context image (an ImageRecord). It appears
	// in snapshot files (one per context) and in the journal when a
	// whole context's state is installed at once (a checkpoint, journal
	// attach, an adopted session).
	RecImage
	// RecContextCreated records a context coming into existence.
	RecContextCreated
	// RecContextDestroyed records an orderly context teardown: its
	// durable state is discarded.
	RecContextDestroyed
	// RecEntryWritten records one page-table entry's swap-side state
	// after a mutation (allocation, host write, checkpoint flush).
	RecEntryWritten
	// RecEntryFreed records a page-table entry de-allocation.
	RecEntryFreed
	// RecKernelCommitted records one acknowledged kernel launch; on
	// recovery the kernels committed since the last checkpoint are
	// replayed to regenerate device-only state (§4.6).
	RecKernelCommitted
	// RecCheckpoint records a checkpoint boundary: the entry-written
	// records before it capture the full device state, so the pending
	// kernel list resets. Nothing writes it any more (a checkpoint is a
	// RecImage); recovery still reads it out of older journals.
	RecCheckpoint
)

var recNames = [...]string{
	recInvalid:          "invalid",
	RecSnapshotHeader:   "snapshot-header",
	RecImage:            "image",
	RecContextCreated:   "context-created",
	RecContextDestroyed: "context-destroyed",
	RecEntryWritten:     "entry-written",
	RecEntryFreed:       "entry-freed",
	RecKernelCommitted:  "kernel-committed",
	RecCheckpoint:       "checkpoint",
}

// String implements fmt.Stringer.
func (t RecType) String() string {
	if int(t) < len(recNames) {
		return recNames[t]
	}
	return fmt.Sprintf("rectype(%d)", int(t))
}

// ImageRecord is the durable form of a session: its page table and
// swap copies, plus the kernels committed since that image was taken,
// which a resume replays over it (§4.6). It is the payload of RecImage,
// what recovery hands the runtime per context, and — entry data carried
// separately as chunks — what a migration ships (failover.Hello).
type ImageRecord struct {
	Image   memmgr.ContextImage
	Pending []api.LaunchCall
}

// entryRecord is the payload of RecEntryWritten.
type entryRecord struct {
	Entry memmgr.EntryImage
	// NextOff, when non-zero, advances the context's allocation cursor
	// (set by allocation-originated writes so restored contexts never
	// hand out overlapping virtual addresses).
	NextOff uint64
}

// freeRecord is the payload of RecEntryFreed.
type freeRecord struct {
	Virtual api.DevPtr
}

// kernelRecord is the payload of RecKernelCommitted.
type kernelRecord struct {
	Call api.LaunchCall
}
