package memmgr

import (
	"fmt"
	"sort"

	"gvrt/internal/api"
)

// This file implements the state persistence behind §4.6's full-node
// restart capability (the paper combines its runtime with BLCR; here
// the runtime serialises its own memory-manager state instead). A
// context image captures everything the virtual memory system knows
// about one application thread: its page-table entries and the swap
// copies of their data. Because the swap area plus page table *are* the
// checkpoint, an image taken after a Checkpoint fully reconstructs the
// context's device state on any node.

// EntryImage is the serialisable form of one page-table entry.
type EntryImage struct {
	Virtual api.DevPtr
	Size    uint64
	Kind    Kind
	// HasData distinguishes real-byte entries from synthetic ones.
	HasData bool
	// Data is the swap copy (nil for synthetic entries).
	Data []byte
	// Nested carries the registered nested-structure layout, if any.
	NestedMembers []api.DevPtr
	NestedOffsets []uint64
}

// ContextImage is the serialisable form of one context's memory state.
type ContextImage struct {
	CtxID   int64
	NextOff uint64
	Entries []EntryImage
}

// ExportContext captures the page table and swap area of sp's context,
// whose service lock the caller holds. Entries still dirty on the device
// (ToCopy2Swap) cannot be captured — the caller must CheckpointIn or
// SwapOutAllIn first; ExportContext fails loudly rather than snapshot
// stale data.
func (m *Manager) ExportContext(sp *Space) (*ContextImage, error) {
	img := &ContextImage{CtxID: sp.id, NextOff: sp.next}
	for _, pte := range sp.table {
		if pte.ToCopy2Swap {
			return nil, fmt.Errorf("memmgr: entry %#x has device-only data; checkpoint before export", uint64(pte.Virtual))
		}
		img.Entries = append(img.Entries, pte.image())
	}
	return img, nil
}

// ImportContext reconstructs a context's memory state from an image.
// Every entry comes back off-device with its swap copy authoritative
// (ToCopy2Dev set when it carries data), so the first kernel launch
// after resume lazily restores residency — exactly the §4.6 restart
// semantics. It fails if the context ID's Space holds entries (its
// usage says so; another context's table is not its to read), and with
// ErrInvalidValue on an image ExportContext could not have produced
// (importEntries); a refused image imports and reserves nothing.
func (m *Manager) ImportContext(img *ContextImage) error {
	cs := newSpace(img.CtxID)
	entries, err := importEntries(img, cs)
	if err != nil {
		return err
	}
	var total uint64
	for _, pte := range entries {
		total += pte.Size
	}
	s := m.shardOf(img.CtxID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.ctxs[img.CtxID]; old != nil && old.Usage() > 0 {
		return fmt.Errorf("memmgr: context %d already present", img.CtxID)
	}
	// Bulk-reserve the whole image against the host limit up front; a
	// failed reservation imports nothing.
	if !m.reserveHost(total) {
		return api.ErrSwapAllocation
	}
	cs.next, cs.table = img.NextOff, entries
	cs.usage.Store(total)
	s.ctxs[img.CtxID] = cs
	return nil
}

// importEntries builds the page table an image describes for cs, sorted
// by Virtual as Resolve needs. An image comes from a disk or a peer, so
// nothing in it is trusted: it returns ErrInvalidValue unless every entry
// is one Malloc and RegisterNested could have made in the image's
// context — a non-empty extent in the context's address space, below the
// allocation cursor and clear of every other entry; exactly Size real
// bytes when it has any; nested pointers paired with 8-byte slots inside
// the entry and naming the context's own entries. Bounded and disjoint
// in one context's space, the sizes cannot sum past 2^40, let alone wrap.
func importEntries(img *ContextImage, cs *Space) ([]*PTE, error) {
	limit := min(img.NextOff, maxEntry)
	entries := make([]*PTE, 0, len(img.Entries))
	for i := range img.Entries {
		e := &img.Entries[i]
		off := uint64(e.Virtual) & (1<<ctxShift - 1)
		if !owns(img.CtxID, e.Virtual) || e.Size == 0 || !inRange(off, e.Size, limit) ||
			e.HasData && uint64(len(e.Data)) != e.Size || len(e.NestedMembers) != len(e.NestedOffsets) {
			return nil, api.ErrInvalidValue
		}
		for k, o := range e.NestedOffsets {
			if !inRange(o, 8, e.Size) || !owns(img.CtxID, e.NestedMembers[k]) {
				return nil, api.ErrInvalidValue
			}
		}
		pte := &PTE{
			Virtual: e.Virtual,
			Size:    e.Size,
			Kind:    e.Kind,
			owner:   cs,
			// Data must return to a device before the next kernel.
			ToCopy2Dev: true,
		}
		if e.HasData {
			pte.data = append([]byte(nil), e.Data...)
		}
		if len(e.NestedMembers) > 0 {
			pte.Nested = &Nested{
				Members: append([]api.DevPtr(nil), e.NestedMembers...),
				Offsets: append([]uint64(nil), e.NestedOffsets...),
			}
		}
		entries = append(entries, pte)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Virtual < entries[j].Virtual })
	for i := 1; i < len(entries); i++ {
		if prev := entries[i-1]; entries[i].Virtual-prev.Virtual < api.DevPtr(prev.Size) {
			return nil, api.ErrInvalidValue
		}
	}
	return entries, nil
}
