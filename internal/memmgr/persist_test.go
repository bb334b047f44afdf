package memmgr

import (
	"errors"
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
			if n := len(m.AppendEntriesIn(nil, m.space(ctx))); n != 0 || m.UsageOf(ctx) != 0 || m.Stats().HostBytesInUse != 0 {
				t.Fatalf("refused image left %d entries, usage %d, %d host bytes", n, m.UsageOf(ctx), m.Stats().HostBytesInUse)
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
