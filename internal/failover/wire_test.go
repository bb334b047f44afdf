package failover

import "testing"

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
