package failover

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/memmgr"
	"gvrt/internal/wal"
)

func TestManifestAndChunks(t *testing.T) {
	data := make([]byte, ChunkSize*2+100)
	for i := range data {
		data[i] = byte(i * 13)
	}
	refs := ManifestOf(data)
	if len(refs) != 3 {
		t.Fatalf("manifest of %d bytes has %d chunks, want 3", len(data), len(refs))
	}
	if refs[2].Len != 100 {
		t.Fatalf("final short chunk len = %d, want 100", refs[2].Len)
	}
	for i, ref := range refs {
		c := ChunkAt(data, i)
		if !VerifyChunk(ref, c) {
			t.Fatalf("chunk %d does not verify against its own manifest", i)
		}
		// A corrupted byte fails verification.
		mut := append([]byte(nil), c...)
		mut[0] ^= 1
		if VerifyChunk(ref, mut) {
			t.Fatalf("chunk %d verified after corruption", i)
		}
		// Truncation fails verification.
		if VerifyChunk(ref, c[:len(c)-1]) {
			t.Fatalf("chunk %d verified after truncation", i)
		}
	}
	if ManifestOf(nil) != nil {
		t.Fatal("empty data should have an empty manifest")
	}
	if got := ChunkAt(data, 99); len(got) != 0 {
		t.Fatalf("out-of-range ChunkAt returned %d bytes", len(got))
	}
}

// TestHelloRoundTrip: a Hello is the journal's image record with entry
// data moved into chunk manifests; encoded, decoded and re-assembled
// from the chunks it names, it is the record again — pending kernels,
// allocation cursor, data-less and empty entries included — and the
// record it was cut from still holds its bytes.
func TestHelloRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), ChunkSize/16+1) // two chunks
	rec := ckptlog.ImageRecord{
		Image: memmgr.ContextImage{CtxID: 7, NextOff: 4096, Entries: []memmgr.EntryImage{
			{Virtual: 0x100, Size: uint64(len(big)), HasData: true, Data: big},
			{Virtual: 0x200, Size: 8},
			{Virtual: 0x300, Size: 16, HasData: true, Data: []byte("tail"), NestedMembers: []api.DevPtr{0x100}, NestedOffsets: []uint64{8}},
		}},
		Pending: []api.LaunchCall{{Kernel: "inc", PtrArgs: []api.DevPtr{0x100}, Scalars: []uint64{3}}},
	}
	sent := NewHello("src", 3, rec)
	if sent.TotalBytes != int64(len(big)+4) || len(sent.Chunks) != 3 || len(sent.Chunks[0]) != 2 || len(sent.Chunks[1]) != 0 {
		t.Fatalf("hello manifests = %+v, total %d", sent.Chunks, sent.TotalBytes)
	}
	for _, e := range sent.Record.Image.Entries {
		if e.Data != nil {
			t.Fatalf("hello still carries entry %#x's data", e.Virtual)
		}
	}
	if !bytes.Equal(rec.Image.Entries[0].Data, big) {
		t.Fatal("NewHello stripped the source record")
	}

	payload, err := wal.EncodeGob(sent)
	if err != nil {
		t.Fatal(err)
	}
	var got Hello
	if err := wal.DecodeGob(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.Owner != "src" || got.Epoch != 3 {
		t.Fatalf("decoded hello owner/epoch = %q/%d", got.Owner, got.Epoch)
	}
	fromSource := func(id ChunkID) ([]byte, bool) {
		c := ChunkAt(rec.Image.Entries[id.Entry].Data, int(id.Index))
		return c, VerifyChunk(got.Chunks[id.Entry][id.Index], c)
	}
	back, err := got.Assemble(fromSource)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*back, rec) {
		t.Fatalf("assembled record = %+v, want %+v", *back, rec)
	}
	// A chunk that never arrived refuses the whole record.
	if _, err := got.Assemble(func(id ChunkID) ([]byte, bool) {
		if id == (ChunkID{Entry: 0, Index: 1}) {
			return nil, false
		}
		return fromSource(id)
	}); !errors.Is(err, api.ErrInvalidValue) {
		t.Fatalf("assemble with a missing chunk: err = %v, want ErrInvalidValue", err)
	}
}
