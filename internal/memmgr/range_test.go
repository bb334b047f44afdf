package memmgr

import (
	"math/bits"
	"testing"
)

// FuzzRange: inRange accepts exactly when off+size, computed without
// wrapping, is at most limit. The seeds are the values of core's
// TestWrappedRangesRefused.
func FuzzRange(f *testing.F) {
	edge := []uint64{0, 1, 64, 65, 1 << 63, 1<<64 - 8, 1<<64 - 1}
	for _, off := range edge {
		for _, size := range edge {
			f.Add(off, size, uint64(64))
			f.Add(off, size, uint64(1<<64-1))
		}
	}
	f.Fuzz(func(t *testing.T, off, size, limit uint64) {
		sum, carry := bits.Add64(off, size, 0)
		if want := carry == 0 && sum <= limit; inRange(off, size, limit) != want {
			t.Errorf("inRange(%#x, %#x, %#x) = %v, want %v", off, size, limit, !want, want)
		}
	})
}
