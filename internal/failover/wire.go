package failover

import (
	"fmt"
	"hash/crc32"
	"slices"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/wal"
)

// This file defines the migration wire protocol's messages. They travel
// as wal frames — the same CRC-framed records the journal and the store
// write — whose Kind is one of the Frame* constants below, ID the
// session, and Payload the wal.EncodeGob of the matching message type.
// The exchange:
//
//	source → target  Hello   (the image record, entry data replaced by
//	                          manifests: per-chunk hash/len/CRC)
//	target → source  Need    (chunks not satisfiable from the target's
//	                          dedup store or a prior partial transfer —
//	                          the resumable offsets)
//	source → target  Chunk*  (only the needed chunks, one frame each)
//	source → target  Commit
//	target → source  Result  (imported, or a typed failure)
//
// Every frame is individually CRC-protected, so a torn or corrupt frame
// is detected at the target before any of its bytes can reach an
// imported image; the receiver's dispatch switch rejects unknown kinds.

// Frame kinds. Zero is never encoded.
const (
	// FrameHello opens a transfer: session metadata plus the chunk
	// manifest of every entry.
	FrameHello uint8 = iota + 1
	// FrameNeed is the target's reply to Hello: the chunks it wants.
	FrameNeed
	// FrameChunk carries one entry chunk's bytes.
	FrameChunk
	// FrameCommit asks the target to assemble and import the image.
	FrameCommit
	// FrameResult reports the import outcome.
	FrameResult
)

// ChunkSize is the migration transfer granularity. It deliberately
// matches the memory manager's dedup chunking, so a manifest chunk of
// an entry's data has the same (hash, bytes) as the interned chunk a
// sealed copy of that entry produced — which is what lets the target
// satisfy chunks from its own dedup store without any transfer.
const ChunkSize = 64 << 10

// ChunkRef identifies a chunk's content: FNV-1a hash (the dedup store's
// key), exact length, and a CRC-32C guarding against hash collisions
// and corruption.
type ChunkRef struct {
	Hash uint64
	Len  uint32
	Sum  uint32
}

// ChunkID addresses a chunk within a transfer: entry index in the Hello
// manifest, chunk index within that entry's data.
type ChunkID struct {
	Entry int32
	Index int32
}

// Hello is the FrameHello payload: everything about the session except
// the chunk bytes.
type Hello struct {
	Owner string
	Epoch uint64
	// Record is the session's durable form — the record the journal
	// writes — with every entry's Data stripped: the chunks carry it.
	Record ckptlog.ImageRecord
	// Chunks[i] is the chunk manifest of Record.Image.Entries[i]'s data.
	Chunks [][]ChunkRef
	// TotalBytes is the summed data length across entries — what a
	// dedup-blind transfer would ship.
	TotalBytes int64
}

// NewHello splits rec into the Hello that announces it: entry data is
// replaced by its chunk manifest. rec itself is left intact — the
// source serves the target's Need out of it.
func NewHello(owner string, epoch uint64, rec ckptlog.ImageRecord) Hello {
	h := Hello{Owner: owner, Epoch: epoch, Record: rec}
	h.Record.Image.Entries = slices.Clone(rec.Image.Entries)
	for i := range h.Record.Image.Entries {
		e := &h.Record.Image.Entries[i]
		h.Chunks = append(h.Chunks, ManifestOf(e.Data))
		h.TotalBytes += int64(len(e.Data))
		e.Data = nil
	}
	return h
}

// Assemble is NewHello's inverse on the target: the record with every
// entry's data re-joined from its chunks, which chunk fetches (already
// verified against the manifest) by ID.
func (h *Hello) Assemble(chunk func(ChunkID) ([]byte, bool)) (*ckptlog.ImageRecord, error) {
	rec := h.Record
	rec.Image.Entries = slices.Clone(h.Record.Image.Entries)
	for i := range rec.Image.Entries {
		e := &rec.Image.Entries[i]
		if !e.HasData {
			continue
		}
		parts := make([][]byte, len(h.Chunks[i]))
		for k := range parts {
			var ok bool
			if parts[k], ok = chunk(ChunkID{Entry: int32(i), Index: int32(k)}); !ok {
				return nil, fmt.Errorf("chunk %d.%d never arrived: %w", i, k, api.ErrInvalidValue)
			}
		}
		e.Data = slices.Concat(parts...)
	}
	return &rec, nil
}

// Need is the FrameNeed payload: the chunks the target cannot satisfy
// locally.
type Need struct {
	Chunks []ChunkID
}

// Chunk is the FrameChunk payload.
type Chunk struct {
	ID   ChunkID
	Data []byte
}

// Result is the FrameResult payload.
type Result struct {
	Code   int32
	Detail string
}

// ManifestOf chunks data at ChunkSize and returns the per-chunk refs.
func ManifestOf(data []byte) []ChunkRef {
	if len(data) == 0 {
		return nil
	}
	refs := make([]ChunkRef, 0, (len(data)+ChunkSize-1)/ChunkSize)
	for off := 0; off < len(data); off += ChunkSize {
		c := ChunkAt(data, off/ChunkSize)
		refs = append(refs, ChunkRef{
			Hash: fnv64a(c),
			Len:  uint32(len(c)),
			Sum:  crc32.Checksum(c, wal.Castagnoli),
		})
	}
	return refs
}

// ChunkAt returns the i-th ChunkSize slice of data (short final chunk),
// or nil when i is outside the manifest — a hostile Need frame naming an
// absurd index must not panic the source.
func ChunkAt(data []byte, i int) []byte {
	if i < 0 || i*ChunkSize >= len(data) {
		return nil
	}
	lo := i * ChunkSize
	hi := lo + ChunkSize
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi]
}

// VerifyChunk reports whether data matches the manifest ref.
func VerifyChunk(ref ChunkRef, data []byte) bool {
	return uint32(len(data)) == ref.Len &&
		fnv64a(data) == ref.Hash &&
		crc32.Checksum(data, wal.Castagnoli) == ref.Sum
}

// fnv64a matches the memory manager's dedup-store hash (FNV-1a 64).
func fnv64a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
