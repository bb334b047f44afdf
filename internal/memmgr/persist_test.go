package memmgr

import (
	"errors"
	"strings"
	"testing"

	"gvrt/internal/api"
)

// TestImportContextRefusesMalformedImages: an image arrives from a disk
// or a peer, so ImportContext takes only what ExportContext could have
// produced. Each malformed image is refused with ErrInvalidValue and
// leaves nothing imported and no host bytes reserved; the well-formed
// image then imports under the same ID. Before the check, the short-data
// image imported, and the first read past its 10 bytes panicked.
func TestImportContextRefusesMalformedImages(t *testing.T) {
	const ctx = 3
	at := func(ctx int64, off uint64) api.DevPtr { return api.DevPtr(virtTag | uint64(ctx)<<ctxShift | off) }
	entry := func(off, size uint64) EntryImage {
		return EntryImage{Virtual: at(ctx, off), Size: size, HasData: true, Data: make([]byte, size)}
	}
	image := func(edit func(img *ContextImage)) *ContextImage {
		parent := entry(0, 64)
		parent.NestedMembers, parent.NestedOffsets = []api.DevPtr{at(ctx, 256)}, []uint64{8}
		img := &ContextImage{CtxID: ctx, NextOff: 1 << 20, Entries: []EntryImage{parent, entry(256, 512)}}
		if edit != nil {
			edit(img)
		}
		return img
	}
	for _, tc := range []struct {
		name string
		edit func(img *ContextImage)
	}{
		{"short data", func(img *ContextImage) {
			img.NextOff = 2 << 20
			img.Entries[1] = entry(1<<20, 1<<20)
			img.Entries[1].Data = make([]byte, 10)
		}},
		{"long data", func(img *ContextImage) { img.Entries[1].Data = make([]byte, 513) }},
		{"nested members without offsets", func(img *ContextImage) { img.Entries[0].NestedOffsets = nil }},
		{"nested offset leaves under 8 bytes", func(img *ContextImage) { img.Entries[0].NestedOffsets[0] = 60 }},
		{"nested offset wraps", func(img *ContextImage) { img.Entries[0].NestedOffsets[0] = ^uint64(0) - 3 }},
		{"nested member of another context", func(img *ContextImage) { img.Entries[0].NestedMembers[0] = at(ctx+1, 256) }},
		{"entry of another context", func(img *ContextImage) { img.Entries[1].Virtual = at(ctx+1, 256) }},
		{"entry without the virtual tag", func(img *ContextImage) { img.Entries[1].Virtual &^= api.DevPtr(virtTag) }},
		{"empty entry", func(img *ContextImage) { img.Entries[1] = entry(256, 0) }},
		{"entries overlap", func(img *ContextImage) { img.Entries[1] = entry(32, 512) }},
		{"entries share an address", func(img *ContextImage) { img.Entries[1] = entry(0, 512) }},
		{"entry past the cursor", func(img *ContextImage) { img.NextOff = 512 }},
		{"entry past the context's space", func(img *ContextImage) {
			img.NextOff = ^uint64(0)
			img.Entries[1] = EntryImage{Virtual: at(ctx, 256), Size: maxEntry}
		}},
		{"sizes whose sum wraps", func(img *ContextImage) {
			img.NextOff = ^uint64(0)
			img.Entries[0] = EntryImage{Virtual: at(ctx, 0), Size: 1 << 63}
			img.Entries[1] = EntryImage{Virtual: at(ctx, 256), Size: 1 << 63}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(true, 0)
			if err := m.ImportContext(image(tc.edit)); !errors.Is(err, api.ErrInvalidValue) {
				t.Fatalf("ImportContext = %v, want ErrInvalidValue", err)
			}
			if sp, used := m.space(ctx), m.Stats().HostBytesInUse; sp != nil || used != 0 {
				t.Fatalf("refused image left Space %v, %d host bytes", sp, used)
			}
			if err := m.ImportContext(image(nil)); err != nil {
				t.Fatalf("well-formed image after the refusal: %v", err)
			}
			if got := m.Stats().HostBytesInUse; got != 64+512 {
				t.Errorf("host bytes %d, want %d", got, 64+512)
			}
		})
	}
}

// TestImportContextRefusesPresentContext: an image for an ID whose Space
// holds entries is refused; it reserves no host bytes and leaves the
// live table and its usage as they were. Once that Space is empty again
// the same image imports.
func TestImportContextRefusesPresentContext(t *testing.T) {
	const ctx = 3
	m := New(true, 0)
	sp := m.SetLane(ctx, 0)
	live := mustMalloc(t, m, ctx, 100)
	img := &ContextImage{CtxID: ctx, NextOff: 1 << 20, Entries: []EntryImage{
		{Virtual: api.DevPtr(virtTag | ctx<<ctxShift | 512), Size: 64},
	}}
	if err := m.ImportContext(img); err == nil || !strings.Contains(err.Error(), "already present") {
		t.Fatalf("ImportContext onto a live context = %v, want already present", err)
	}
	if got := m.Stats().HostBytesInUse; got != 100 {
		t.Errorf("host bytes %d after the refusal, want 100", got)
	}
	if m.space(ctx) != sp || sp.Usage() != 100 || len(sp.table) != 1 {
		t.Errorf("refusal changed the live Space: usage %d, %d entries", sp.Usage(), len(sp.table))
	}
	if pte, _, err := m.Resolve(live.Virtual); pte != live || err != nil {
		t.Errorf("live entry resolves to %v, %v", pte, err)
	}
	if err := m.Free(live, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.ImportContext(img); err != nil {
		t.Fatalf("ImportContext onto an emptied Space: %v", err)
	}
	if got, u := m.Stats().HostBytesInUse, m.space(ctx).Usage(); got != 64 || u != 64 {
		t.Errorf("after the import: %d host bytes, usage %d; want 64, 64", got, u)
	}
}
