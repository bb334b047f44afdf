package memmgr

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"gvrt/internal/api"
)

// pagePattern fills a buffer with bytes that differ between pages and
// between the chunks of one page, so dedup matches exactly the pairs a
// test intends to match.
func pagePattern(page int, size uint64) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(j * 7)
	}
	// Stamp every chunk with its (page, chunk) coordinates: byte
	// arithmetic alone collides across pages (everything is mod 256),
	// an explicit tag cannot.
	for c := uint64(0); c*dedupChunkSize < size; c++ {
		data[c*dedupChunkSize] = byte(page)
		data[c*dedupChunkSize+1] = byte(c)
	}
	return data
}

// TestDedupSealSharing drives the sequential dedup lifecycle: a second
// identical image costs no extra host bytes, a partial write breaks the
// sharing (COW), and frees drop chunk refcounts to zero.
func TestDedupSealSharing(t *testing.T) {
	m := New(true, 0)
	const size = 2 * dedupChunkSize
	data := pagePattern(1, size)

	a := mustMalloc(t, m, 1, size)
	b := mustMalloc(t, m, 2, size)
	if err := m.CopyHD(a, 0, data, 0, nil); err != nil {
		t.Fatalf("CopyHD(a): %v", err)
	}
	if err := m.CopyHD(b, 0, data, 0, nil); err != nil {
		t.Fatalf("CopyHD(b): %v", err)
	}

	st := m.Stats()
	if st.DedupHits != 2 || st.DedupSavedBytes != size {
		t.Fatalf("after identical seals: DedupHits=%d DedupSavedBytes=%d, want 2, %d",
			st.DedupHits, st.DedupSavedBytes, size)
	}
	if got := m.DedupChunks(); got != 2 {
		t.Fatalf("DedupChunks = %d, want 2", got)
	}
	if st.HostBytesInUse != size {
		t.Fatalf("HostBytesInUse = %d, want %d (second image deduped)", st.HostBytesInUse, size)
	}

	// Reads through the sealed image see the original bytes.
	out, err := m.CopyDH(b, 0, size, nil)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("CopyDH(b) = err %v, content match %v", err, bytes.Equal(out, data))
	}

	// A partial write to b privatises its image; a keeps the chunks.
	patch := []byte{0xde, 0xad, 0xbe, 0xef}
	if err := m.CopyHD(b, 10, patch, 0, nil); err != nil {
		t.Fatalf("partial CopyHD(b): %v", err)
	}
	st = m.Stats()
	if st.CowBreaks != 1 || st.DedupSavedBytes != 0 {
		t.Fatalf("after COW break: CowBreaks=%d DedupSavedBytes=%d, want 1, 0",
			st.CowBreaks, st.DedupSavedBytes)
	}
	if st.HostBytesInUse != 2*size {
		t.Fatalf("HostBytesInUse = %d, want %d (sharing broken)", st.HostBytesInUse, 2*size)
	}
	want := append([]byte(nil), data...)
	copy(want[10:], patch)
	out, err = m.CopyDH(b, 0, size, nil)
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("CopyDH(b) after COW = err %v, content match %v", err, bytes.Equal(out, want))
	}
	// a is untouched by b's write.
	out, err = m.CopyDH(a, 0, size, nil)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("CopyDH(a) after COW on b = err %v, content match %v", err, bytes.Equal(out, data))
	}

	if err := m.Free(a, nil); err != nil {
		t.Fatalf("Free(a): %v", err)
	}
	if got := m.DedupChunks(); got != 0 {
		t.Fatalf("DedupChunks after freeing last sealed holder = %d, want 0", got)
	}
	if err := m.Free(b, nil); err != nil {
		t.Fatalf("Free(b): %v", err)
	}
	st = m.Stats()
	if st.HostBytesInUse != 0 || st.DedupSavedBytes != 0 {
		t.Fatalf("after frees: HostBytesInUse=%d DedupSavedBytes=%d, want 0, 0",
			st.HostBytesInUse, st.DedupSavedBytes)
	}
}

// TestDedupConcurrentSwapOutAll swaps out two contexts whose pages hold
// identical content concurrently (run under -race): the refcounted
// store must end with exactly one interned copy per distinct chunk, one
// context's worth of saved bytes, and clean teardown accounting.
func TestDedupConcurrentSwapOutAll(t *testing.T) {
	m := New(true, 0)
	const (
		pageSize = 2 * dedupChunkSize
		pages    = 8
	)
	ops := [2]*fakeOps{newFakeOps(1 << 30), newFakeOps(1 << 30)}
	ptes := [2][]*PTE{}
	for c := 0; c < 2; c++ {
		for i := 0; i < pages; i++ {
			pte := mustMalloc(t, m, int64(c+1), pageSize)
			if err := m.MakeResident(pte, ops[c]); err != nil {
				t.Fatalf("MakeResident ctx%d page%d: %v", c+1, i, err)
			}
			ops[c].poke(pte.Device, pagePattern(i, pageSize))
			ptes[c] = append(ptes[c], pte)
		}
		m.MarkKernelEffects(ptes[c], nil)
	}

	var wg sync.WaitGroup
	errs := [2]error{}
	ns := [2]int{}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ns[c], errs[c] = m.SwapOutAll(int64(c+1), ops[c])
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil || ns[c] != pages {
			t.Fatalf("SwapOutAll ctx%d = %d entries, err %v; want %d, nil", c+1, ns[c], err, pages)
		}
	}

	if got := m.DedupChunks(); got != 2*pages {
		t.Fatalf("DedupChunks = %d, want %d (one interned copy per distinct chunk)", got, 2*pages)
	}
	st := m.Stats()
	if st.DedupSavedBytes != pages*pageSize {
		t.Fatalf("DedupSavedBytes = %d, want %d (one context's worth)", st.DedupSavedBytes, pages*pageSize)
	}
	if st.HostBytesInUse != pages*pageSize {
		t.Fatalf("HostBytesInUse = %d, want %d", st.HostBytesInUse, pages*pageSize)
	}

	// Both contexts read back their own pages intact through the shared
	// chunks.
	for c := 0; c < 2; c++ {
		for i, pte := range ptes[c] {
			out, err := m.CopyDH(pte, 0, pageSize, ops[c])
			if err != nil || !bytes.Equal(out, pagePattern(i, pageSize)) {
				t.Fatalf("ctx%d page%d readback: err %v, match %v", c+1, i, err, err == nil && bytes.Equal(out, pagePattern(i, pageSize)))
			}
		}
	}

	m.ReleaseContext(1, ops[0])
	m.ReleaseContext(2, ops[1])
	st = m.Stats()
	if got := m.DedupChunks(); got != 0 || st.DedupSavedBytes != 0 || st.HostBytesInUse != 0 {
		t.Fatalf("after release: chunks=%d saved=%d host=%d, want all 0",
			got, st.DedupSavedBytes, st.HostBytesInUse)
	}
}

// TestPullDeviceCopy pins the shared guard's semantics: reads always
// pull a device-newer copy, partial writes pull it (and fail unbound),
// full-extent writes never pull.
func TestPullDeviceCopy(t *testing.T) {
	m := New(true, 0)
	ops := newFakeOps(1 << 20)
	pte := mustMalloc(t, m, 1, 512)
	if err := m.MakeResident(pte, ops); err != nil {
		t.Fatalf("MakeResident: %v", err)
	}
	devData := pagePattern(3, 512)
	ops.poke(pte.Device, devData)
	m.MarkKernelEffects([]*PTE{pte}, nil)

	// Read: pulls the device copy.
	out, err := m.CopyDH(pte, 0, 512, ops)
	if err != nil || !bytes.Equal(out, devData) {
		t.Fatalf("CopyDH on device-newer entry: err %v, match %v", err, bytes.Equal(out, devData))
	}
	if pte.ToCopy2Swap {
		t.Fatal("ToCopy2Swap still set after read pull")
	}

	// Partial write while unbound: must fail, the device-newer bytes
	// around the write cannot be fetched.
	m.MarkKernelEffects([]*PTE{pte}, nil)
	if err := m.CopyHD(pte, 8, []byte{1, 2, 3}, 0, nil); !errors.Is(err, api.ErrInvalidValue) {
		t.Fatalf("partial CopyHD unbound on device-newer entry = %v, want ErrInvalidValue", err)
	}

	// Full overwrite while unbound: allowed, nothing to pull.
	full := pagePattern(4, 512)
	if err := m.CopyHD(pte, 0, full, 0, nil); err != nil {
		t.Fatalf("full CopyHD unbound on device-newer entry: %v", err)
	}
	if out, _ := m.CopyDH(pte, 0, 512, nil); !bytes.Equal(out, full) {
		t.Fatal("full overwrite content lost")
	}

	// Partial write while bound: pulls the device copy, then overlays.
	dev2 := pagePattern(5, 512)
	ops.poke(pte.Device, dev2)
	m.MarkKernelEffects([]*PTE{pte}, nil)
	patch := []byte{9, 9, 9}
	if err := m.CopyHD(pte, 100, patch, 0, ops); err != nil {
		t.Fatalf("partial CopyHD bound: %v", err)
	}
	want := append([]byte(nil), dev2...)
	copy(want[100:], patch)
	if out, _ := m.CopyDH(pte, 0, 512, ops); !bytes.Equal(out, want) {
		t.Fatal("partial write did not overlay the pulled device copy")
	}
}
