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

// ExportContext captures a context's page table and swap area. Entries
// still dirty on the device (ToCopy2Swap) cannot be captured — the
// caller must Checkpoint or SwapOutAll first; ExportContext fails
// loudly rather than snapshot stale data.
func (m *Manager) ExportContext(ctxID int64) (*ContextImage, error) {
	s := m.shardOf(ctxID)
	s.mu.Lock()
	var entries []*PTE
	var next uint64
	if cs := s.ctxs[ctxID]; cs != nil {
		entries, next = append(entries, cs.table...), cs.next
	}
	s.mu.Unlock()

	img := &ContextImage{CtxID: ctxID, NextOff: next}
	for _, pte := range entries {
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
// semantics. It fails if the context ID is already in use.
func (m *Manager) ImportContext(img *ContextImage) error {
	s := m.shardOf(img.CtxID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tableOf(img.CtxID)) > 0 {
		return fmt.Errorf("memmgr: context %d already present", img.CtxID)
	}
	var total uint64
	for _, e := range img.Entries {
		total += e.Size
	}
	// Bulk-reserve the whole image against the host limit up front; a
	// failed reservation imports nothing.
	if !m.reserveHost(total) {
		return api.ErrSwapAllocation
	}
	cs := newCtxState(img.CtxID)
	cs.next, cs.usage = img.NextOff, total
	var entries []*PTE
	for _, e := range img.Entries {
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
	// Resolve binary-searches the table by Virtual; images produced by
	// ExportContext are already ordered, but sort defensively so a
	// hand-built image cannot break lookups.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Virtual < entries[j].Virtual })
	cs.table = entries
	s.ctxs[img.CtxID] = cs
	return nil
}
