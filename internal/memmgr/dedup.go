package memmgr

import (
	"bytes"
	"hash/crc32"
	"sync"

	"gvrt/internal/trace"
	"gvrt/internal/wal"
)

// This file implements content-addressed swap deduplication with
// copy-on-write sharing (DESIGN.md §12). Swap images are split into
// fixed chunks, hashed, and interned in a manager-global refcounted
// store, so tenants holding identical data (same model weights, same
// dataset shards) keep one host copy between them. An entry whose swap
// image was interned is "sealed": its data pointer is nil and reads go
// through the chunk list; the first mutating access breaks sharing
// COW-style by rematerialising a private buffer.
//
// Sealing points — the only two places a full, consistent swap image
// exists — are a full-extent host write (CopyHD over the whole entry)
// and a device→swap sync (syncToSwap). Synthetic
// entries (nil data) are never sealed, so timing-only workloads pay
// nothing. Memset and ImportContext intentionally do not seal: the
// first is rarely a stable image, the second restores exactly the
// bytes the journal recorded.
//
// Host accounting: Malloc charges an entry's full Size. When sealing
// finds chunks already present, the duplicate bytes are released from
// hostUsed and remembered in the entry's dedupSaved; breaking the seal
// re-charges them with forceReserve. The re-charge is unconditional —
// it can transiently overshoot a tight host limit, but only ever by
// bytes that sealing previously released, so occupancy never exceeds
// what the same workload would have used with deduplication off.

// dedupChunkSize is the granularity of content addressing. 64 KiB
// amortises the hash over real pages while still sharing partially
// identical buffers.
const dedupChunkSize = 64 << 10

// swapChunk is one interned chunk. data is immutable once the chunk is
// published: mutators never write through a chunk, they rematerialise
// (unseal) first.
type swapChunk struct {
	hash uint64
	data []byte
	refs int
}

// dedupStore is the manager-global chunk intern table, keyed by hash
// with a collision list compared byte-for-byte.
type dedupStore struct {
	mu     sync.Mutex
	chunks map[uint64][]*swapChunk
}

// fnv64a is FNV-1a, inlined to keep the per-chunk hash allocation-free.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// forceReserve charges n bytes of swap occupancy unconditionally (no
// limit check) — used only to undo a dedup saving, which keeps the
// overshoot bounded (see the file comment).
func (m *Manager) forceReserve(n uint64) {
	m.hostUsed.Add(n)
}

// seal interns the entry's materialised swap image into the dedup
// store. No-op for synthetic or already-sealed entries. Caller holds
// the owning context's service lock.
func (m *Manager) seal(p *PTE) {
	if p.data == nil || p.chunks != nil {
		return
	}
	buf := p.data
	p.chunks = make([]*swapChunk, 0, (len(buf)+dedupChunkSize-1)/dedupChunkSize)
	var saved uint64
	d := &m.dedup
	d.mu.Lock()
	for off := 0; off < len(buf); off += dedupChunkSize {
		end := off + dedupChunkSize
		if end > len(buf) {
			end = len(buf)
		}
		part := buf[off:end:end]
		h := fnv64a(part)
		var found *swapChunk
		for _, c := range d.chunks[h] {
			if len(c.data) == len(part) && bytes.Equal(c.data, part) {
				found = c
				break
			}
		}
		if found != nil {
			found.refs++
			saved += uint64(len(part))
			m.dedupHits.Add(1)
		} else {
			// The chunk aliases p.data; that array becomes unreachable
			// through the entry below, so the alias stays immutable.
			found = &swapChunk{hash: h, data: part, refs: 1}
			d.chunks[h] = append(d.chunks[h], found)
		}
		p.chunks = append(p.chunks, found)
	}
	d.mu.Unlock()
	p.data = nil
	if saved > 0 {
		// Publish the saving before releasing the bytes, so an auditor
		// summing used+saved never observes the transfer half-done low.
		p.dedupSaved += saved
		m.dedupSavedBytes.Add(int64(saved))
		m.tracer.Attribute(p.CtxID(), trace.AttrDedupSaved, int64(saved))
		m.releaseHost(saved)
		if t := m.tracer; t != nil {
			t.Observe(t.DedupSaved, int64(saved))
		}
	}
}

// unseal breaks chunk sharing: it re-charges any saved bytes,
// rematerialises a private buffer from the chunk list, and drops the
// chunk references. No-op for unsealed entries.
func (m *Manager) unseal(p *PTE) {
	if p.chunks == nil {
		return
	}
	m.reclaimSaved(p)
	buf := make([]byte, p.Size)
	off := 0
	for _, c := range p.chunks {
		off += copy(buf[off:], c.data)
	}
	m.dropChunks(p)
	p.data = buf
	m.cowBreaks.Add(1)
}

// discardSeal drops an entry's chunk references without
// rematerialising — for callers about to overwrite the whole image.
func (m *Manager) discardSeal(p *PTE) {
	if p.chunks == nil {
		return
	}
	m.reclaimSaved(p)
	m.dropChunks(p)
}

// reclaimSaved re-charges the entry's dedup saving against hostUsed.
func (m *Manager) reclaimSaved(p *PTE) {
	if p.dedupSaved == 0 {
		return
	}
	m.forceReserve(p.dedupSaved)
	m.dedupSavedBytes.Add(-int64(p.dedupSaved))
	m.tracer.Attribute(p.CtxID(), trace.AttrDedupSaved, -int64(p.dedupSaved))
	p.dedupSaved = 0
}

// dropChunks releases the entry's chunk references, evicting chunks
// whose refcount reaches zero from the store.
func (m *Manager) dropChunks(p *PTE) {
	if p.chunks == nil {
		return
	}
	d := &m.dedup
	d.mu.Lock()
	for _, c := range p.chunks {
		c.refs--
		if c.refs > 0 {
			continue
		}
		list := d.chunks[c.hash]
		for i := range list {
			if list[i] == c {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(d.chunks, c.hash)
		} else {
			d.chunks[c.hash] = list
		}
	}
	d.mu.Unlock()
	p.chunks = nil
}

// mutableSwap returns the entry's private writable swap backing,
// breaking chunk sharing first when the entry is sealed.
func (m *Manager) mutableSwap(p *PTE) []byte {
	m.unseal(p)
	return p.swapData()
}

// hasSwapBytes reports whether the entry carries real bytes, sealed or
// not.
func (p *PTE) hasSwapBytes() bool { return p.data != nil || p.chunks != nil }

// swapView returns the entry's swap bytes for reading: the private
// buffer when unsealed (NOT a copy — callers must not mutate it), or a
// freshly concatenated copy when sealed. Returns nil for synthetic
// entries.
func (p *PTE) swapView() []byte {
	if p.chunks == nil {
		return p.data
	}
	buf := make([]byte, p.Size)
	off := 0
	for _, c := range p.chunks {
		off += copy(buf[off:], c.data)
	}
	return buf
}

// swapImageCopy returns a private copy of the entry's swap bytes (nil
// for synthetic entries) without changing the seal state.
func (p *PTE) swapImageCopy() []byte {
	if p.chunks != nil {
		return p.swapView()
	}
	if p.data == nil {
		return nil
	}
	return append([]byte(nil), p.data...)
}

// readSwapRange copies len(dst) bytes starting at off out of the swap
// image without materialising the whole entry.
func (p *PTE) readSwapRange(dst []byte, off uint64) {
	if p.chunks == nil {
		copy(dst, p.data[off:])
		return
	}
	for _, c := range p.chunks {
		clen := uint64(len(c.data))
		if off >= clen {
			off -= clen
			continue
		}
		n := copy(dst, c.data[off:])
		dst = dst[n:]
		if len(dst) == 0 {
			return
		}
		off = 0
	}
}

// DedupChunks reports the number of distinct chunks currently interned
// (test and introspection hook).
func (m *Manager) DedupChunks() int {
	d := &m.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, list := range d.chunks {
		n += len(list)
	}
	return n
}

// DedupLookup returns a copy of an interned chunk whose content matches
// (hash, length, CRC-32C sum) — the migration target's local-satisfy
// path: a manifest chunk already present in this node's dedup store
// (another tenant's identical data, or a prior import) need not cross
// the wire at all. The CRC disambiguates hash-colliding candidates the
// same way the seal path's byte-compare does, without the caller having
// to ship the bytes it is trying to avoid shipping.
func (m *Manager) DedupLookup(hash uint64, length int, sum uint32) ([]byte, bool) {
	d := &m.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.chunks[hash] {
		if len(c.data) == length && crc32.Checksum(c.data, wal.Castagnoli) == sum {
			return append([]byte(nil), c.data...), true
		}
	}
	return nil, false
}
