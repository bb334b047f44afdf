package memmgr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
)

// hostExact reports whether the swap area's occupancy is exactly the
// footprint of context 1, the only one the property tests allocate for:
// every byte Malloc reserved stays charged until Free returns it.
func hostExact(m *Manager) bool { return m.Stats().HostBytesInUse == m.UsageOf(1) }

// TestFlagInvariantsUnderRandomOps property-checks the Figure 4 state
// machine against random call sequences: after every operation the
// entry must be in one of the five legal states, the accounting of the
// fake device must match the entries' IsAllocated flags, and host
// occupancy must equal the context's footprint.
func TestFlagInvariantsUnderRandomOps(t *testing.T) {
	legal := func(p *PTE) bool {
		// The five states of Figure 4: F/F/F, F/T/F, T/F/F, T/T/F,
		// T/F/T. Equivalently: never both transfer flags, and a
		// non-allocated entry is never device-newer.
		if p.ToCopy2Dev && p.ToCopy2Swap {
			return false
		}
		if !p.IsAllocated && p.ToCopy2Swap {
			return false
		}
		return true
	}

	check := func(ops []uint8) bool {
		m := New(true, 0)
		dev := newFakeOps(1 << 20)
		var entries []*PTE
		for _, op := range ops {
			switch {
			case op < 60 || len(entries) == 0: // malloc
				v, err := m.Malloc(1, uint64(op)%2048+1, KindLinear)
				if err != nil {
					return false
				}
				pte, _, err := m.Resolve(v)
				if err != nil {
					return false
				}
				entries = append(entries, pte)
			default:
				pte := entries[int(op)%len(entries)]
				switch op % 5 {
				case 0: // copyHD: two fill values, so images often repeat
					if err := m.CopyHD(pte, 0, bytes.Repeat([]byte{op % 2}, int(pte.Size)), 0, dev); err != nil {
						return false
					}
				case 1: // launch path
					if err := m.MakeResident(pte, dev); err != nil {
						return false
					}
					m.MarkKernelEffects([]*PTE{pte}, nil)
				case 2: // copyDH
					if _, err := m.CopyDH(pte, 0, 1, dev); err != nil {
						return false
					}
				case 3: // swap
					if err := m.SwapOut(pte, dev); err != nil {
						return false
					}
				case 4: // memset
					if err := m.Memset(pte, 0, op, 1, dev); err != nil {
						return false
					}
				}
			}
			// Invariants after every step.
			var resident uint64
			for _, e := range entries {
				if !legal(e) {
					return false
				}
				if e.IsAllocated {
					if e.Device == 0 {
						return false
					}
					resident += (e.Size + 255) &^ 255 // fake dev doesn't round; compare loosely below
				}
			}
			_ = resident
			// Device accounting: every allocated entry has backing in
			// the fake device; total used there equals the sum of
			// entry sizes.
			var sum uint64
			for _, e := range entries {
				if e.IsAllocated {
					n, ok := dev.sizes[e.Device]
					if !ok || n != e.Size {
						return false
					}
					sum += n
				}
			}
			if sum != dev.used || !hostExact(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDataIntegrityUnderRandomSwaps property-checks that an entry's
// logical content survives arbitrary interleavings of residency changes
// and swaps: whatever was last written (host- or device-side) is what a
// copyDH returns.
func TestDataIntegrityUnderRandomSwaps(t *testing.T) {
	check := func(ops []uint8, seedByte uint8) bool {
		m := New(true, 0)
		dev := newFakeOps(1 << 20)
		v, err := m.Malloc(1, 64, KindLinear)
		if err != nil {
			return false
		}
		pte, _, _ := m.Resolve(v)
		expect := make([]byte, 64)

		write := func(b byte) {
			img := bytes.Repeat([]byte{b}, 64)
			if err := m.CopyHD(pte, 0, img, 0, dev); err != nil {
				panic(err)
			}
			copy(expect, img)
		}
		write(seedByte)

		for _, op := range ops {
			switch op % 4 {
			case 0:
				write(op)
			case 1:
				if err := m.MakeResident(pte, dev); err != nil {
					return false
				}
				m.MarkKernelEffects([]*PTE{pte}, nil)
				// Simulate the kernel incrementing every byte.
				if buf, ok := dev.bufs[pte.Device]; ok {
					for i := range buf {
						buf[i]++
					}
					dev.real[pte.Device] = true
					for i := range expect {
						expect[i]++
					}
				}
			case 2:
				if err := m.SwapOut(pte, dev); err != nil {
					return false
				}
			case 3:
				// Re-bind on a brand new device: migration.
				if pte.IsAllocated {
					if err := m.SwapOut(pte, dev); err != nil {
						return false
					}
				}
				dev = newFakeOps(1 << 20)
			}
		}
		got, err := m.CopyDH(pte, 0, 64, dev)
		if err != nil {
			return false
		}
		return bytes.Equal(got, expect)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFlagInvariantsUnderSwapWriteFailures replays the Figure 4
// property check with the fault plane denying a third of all swap-area
// writes and a tenth of all page-table allocations: injected failures
// are tolerated (the op reports ErrSwapAllocation and moves on), but
// after every step — failed or not — each entry must still be in a
// legal state, with never both transfer flags set, the fake device's
// accounting must still match the IsAllocated flags, and host occupancy
// must still equal the context's footprint.
func TestFlagInvariantsUnderSwapWriteFailures(t *testing.T) {
	legal := func(p *PTE) bool {
		if p.ToCopy2Dev && p.ToCopy2Swap {
			return false
		}
		if !p.IsAllocated && p.ToCopy2Swap {
			return false
		}
		return true
	}

	var seed int64
	check := func(ops []uint8) bool {
		seed++
		m := New(true, 0)
		m.InstallFaults(faultinject.New(faultinject.Plan{
			Name: "swap-storm",
			Seed: seed,
			Rules: []faultinject.Rule{
				{Point: faultinject.PointSwapWrite, Prob: 0.3, Action: faultinject.ActError},
				{Point: faultinject.PointSwapAlloc, Prob: 0.1, Action: faultinject.ActError},
			},
		}))
		dev := newFakeOps(1 << 20)
		var entries []*PTE
		for _, op := range ops {
			var err error
			switch {
			case op < 60 || len(entries) == 0: // malloc
				var v api.DevPtr
				v, err = m.Malloc(1, uint64(op)%2048+1, KindLinear)
				if err == nil {
					var pte *PTE
					pte, _, err = m.Resolve(v)
					if err != nil {
						return false
					}
					entries = append(entries, pte)
				}
			default:
				pte := entries[int(op)%len(entries)]
				switch op % 5 {
				case 0:
					err = m.CopyHD(pte, 0, []byte{op}, 0, dev)
				case 1:
					err = m.MakeResident(pte, dev)
					if err == nil {
						m.MarkKernelEffects([]*PTE{pte}, nil)
					}
				case 2:
					_, err = m.CopyDH(pte, 0, 1, dev)
				case 3:
					err = m.SwapOut(pte, dev)
				case 4:
					err = m.Memset(pte, 0, op, 1, dev)
				}
			}
			// Injected faults surface as the swap-allocation code and
			// nothing else; any other failure is a real bug.
			if err != nil && !errors.Is(err, api.ErrSwapAllocation) {
				return false
			}
			// Invariants after every step, including failed ones.
			for _, e := range entries {
				if !legal(e) {
					return false
				}
				if e.IsAllocated && e.Device == 0 {
					return false
				}
			}
			var sum uint64
			for _, e := range entries {
				if e.IsAllocated {
					n, ok := dev.sizes[e.Device]
					if !ok || n != e.Size {
						return false
					}
					sum += n
				}
			}
			if sum != dev.used || !hostExact(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMemsetDirect(t *testing.T) {
	m := New(true, 0)
	dev := newFakeOps(1 << 20)
	v, _ := m.Malloc(1, 8, KindLinear)
	pte, _, _ := m.Resolve(v)
	if err := m.Memset(pte, 2, 9, 4, dev); err != nil {
		t.Fatal(err)
	}
	out, err := m.CopyDH(pte, 0, 8, dev)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 9, 9, 9, 9, 0, 0}
	if !bytes.Equal(out, want) {
		t.Errorf("after memset, data = %v, want %v", out, want)
	}
	if err := m.Memset(pte, 6, 1, 4, dev); err != api.ErrInvalidValue {
		t.Errorf("out-of-bounds memset err = %v", err)
	}
}
