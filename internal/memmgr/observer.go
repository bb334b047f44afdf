package memmgr

import "gvrt/internal/api"

// Observer receives a notification after every mutation of the durable
// memory state — the page table and swap area that §4.6 declares to be
// the checkpoint. The checkpoint journal implements it to shadow that
// state on disk; a nil observer costs one nil check per mutation.
//
// Callbacks run on the mutating goroutine, after the mutation succeeded,
// while the owning context's service lock is still held — so for one
// context they arrive in mutation order. Implementations must not call
// back into the Manager.
type Observer interface {
	// EntryWritten reports that an entry's swap-side state changed: a
	// fresh allocation, a host write, a memset, or a device→swap sync.
	// nextOff, when non-zero, is the context's new allocation cursor.
	EntryWritten(ctxID int64, e EntryImage, nextOff uint64)
	// EntryFreed reports an entry de-allocation.
	EntryFreed(ctxID int64, virtual api.DevPtr)
	// ContextReleased reports a whole context's teardown.
	ContextReleased(ctxID int64)
}

// SetObserver installs the durable-state observer. Install it before
// the manager starts serving calls; it is not synchronised against
// in-flight mutations.
func (m *Manager) SetObserver(obs Observer) { m.obs = obs }

// image captures the entry's serialisable form (swap-side state only).
// The caller holds the owning context's service lock.
func (p *PTE) image() EntryImage {
	e := EntryImage{
		Virtual: p.Virtual,
		Size:    p.Size,
		Kind:    p.Kind,
		HasData: p.hasSwapBytes(),
	}
	if e.HasData {
		e.Data = p.swapImageCopy()
	}
	if p.Nested != nil {
		e.NestedMembers = append([]api.DevPtr(nil), p.Nested.Members...)
		e.NestedOffsets = append([]uint64(nil), p.Nested.Offsets...)
	}
	return e
}

// noteWrite notifies the observer of an entry mutation.
func (m *Manager) noteWrite(p *PTE) {
	if m.obs != nil {
		m.obs.EntryWritten(p.CtxID(), p.image(), 0)
	}
}
