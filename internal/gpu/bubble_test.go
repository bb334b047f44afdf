//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package gpu

import (
	"errors"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
)

// bubbleDevice runs at scale 1 inside a bubble: model and wall time are
// one, so every end time below is exact.
func bubbleDevice(t *testing.T) (*Device, *sim.Clock, api.DevPtr) {
	clock := sim.NewClock(1)
	d := NewDevice(0, TeslaC2050, clock)
	p, err := d.Malloc(1 << 20)
	if err != nil {
		t.Error(err)
	}
	return d, clock, p
}

// TestEnginesOverlapBubbled: an h2d transfer, a d2h transfer and a
// kernel submitted at one instant run on their own engines, so the last
// ends when the longest does.
func TestEnginesOverlapBubbled(t *testing.T) {
	synctest.Run(func() {
		d, clock, p := bubbleDevice(t)
		t0 := clock.Now()
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); d.CopyIn(p, nil, 1<<20) }()
		go func() { defer wg.Done(); d.CopyOut(p, 1<<19) }()
		go func() { defer wg.Done(); d.Exec(time.Millisecond, 1, nil) }()
		wg.Wait()
		want := max(d.DMATime(1<<20), d.DMATime(1<<19), LaunchOverhead+time.Millisecond)
		if got := clock.Now() - t0; got != want {
			t.Errorf("three engines took %v, want the longest submission's %v", got, want)
		}
	})
}

// TestCopyEngineFIFOBubbled: two h2d submissions share one engine; the
// second, booked while the first is in flight, ends when both have run.
func TestCopyEngineFIFOBubbled(t *testing.T) {
	synctest.Run(func() {
		d, clock, p := bubbleDevice(t)
		t0 := clock.Now()
		ends := make([]time.Duration, 2)
		var wg sync.WaitGroup
		for i, n := range []uint64{1 << 20, 1 << 18} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := d.CopyIn(p, nil, n); err != nil {
					t.Error(err)
				}
				ends[i] = clock.Now() - t0
			}()
			synctest.Wait() // the first is booked before the second submits
		}
		wg.Wait()
		first := d.DMATime(1 << 20)
		if want := []time.Duration{first, first + d.DMATime(1<<18)}; ends[0] != want[0] || ends[1] != want[1] {
			t.Errorf("h2d submissions ended at %v, want %v", ends, want)
		}
	})
}

// TestFailDuringTransferBubbled: a device that fails while a transfer
// is in flight fails the transfer, and lands none of its data.
func TestFailDuringTransferBubbled(t *testing.T) {
	synctest.Run(func() {
		d, _, p := bubbleDevice(t)
		done := make(chan error)
		go func() { done <- d.CopyIn(p, []byte{1, 2, 3}, 3) }()
		synctest.Wait()
		d.Fail()
		if err := <-done; !errors.Is(err, api.ErrDeviceUnavailable) {
			t.Errorf("transfer across a failure: err = %v, want ErrDeviceUnavailable", err)
		}
		d.Restore()
		if b, err := d.Bytes(p); err != nil || b[0] != 0 {
			t.Errorf("failed transfer landed data: %v, %v", b[:3], err)
		}
	})
}
