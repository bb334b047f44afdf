package sim

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestNewClockDefaultScale(t *testing.T) {
	for _, bad := range []float64{0, -1} {
		c := NewClock(bad)
		if c.Scale() != DefaultScale {
			t.Errorf("NewClock(%v).Scale() = %v, want %v", bad, c.Scale(), DefaultScale)
		}
	}
	c := NewClock(0.5)
	if c.Scale() != 0.5 {
		t.Errorf("Scale() = %v, want 0.5", c.Scale())
	}
}

// TestClockNowSaturates: at scale 1e-9, ten wall seconds are 1e19 model
// nanoseconds, past the largest Duration. Now must pin there instead of
// wrapping negative.
func TestClockNowSaturates(t *testing.T) {
	c := &Clock{scale: 1e-9, start: time.Now().Add(-10 * time.Second)}
	if now := c.Now(); now != math.MaxInt64 {
		t.Fatalf("Now() = %v 10 s after a 1e-9 clock started, want the largest Duration", now)
	}
	fresh := NewClock(1e-9)
	if now := fresh.Now(); now < 0 || now == math.MaxInt64 {
		t.Fatalf("fresh 1e-9 clock: Now() = %v, want a small positive model time", now)
	}
}

func TestClockSleepAdvancesModelTime(t *testing.T) {
	c := NewClock(1e-4) // 1 model sec = 0.1 ms wall
	before := c.Now()
	c.Sleep(2 * time.Second) // 0.2 ms wall
	after := c.Now()
	if got := after - before; got < 2*time.Second {
		t.Errorf("model time advanced %v during a 2s model sleep, want >= 2s", got)
	}
	// Wildly generous upper bound: scheduling noise at this scale can be
	// large relative to the sleep, but not 100x.
	if got := after - before; got > 200*time.Second {
		t.Errorf("model time advanced %v during a 2s model sleep, want < 200s", got)
	}
}

func TestClockSleepZeroAndNegative(t *testing.T) {
	c := NewClock(1) // 1 model s = 1 wall s: a real sleep would show
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if w := time.Since(start); w > 100*time.Millisecond {
		t.Errorf("no-op sleeps took %v of wall time, want an immediate return", w)
	}
}

// TestClockPaceParks: where Sleep returns at once, Pace still waits
// paceFloor of wall time; where Sleep waits, Pace is Sleep.
func TestClockPaceParks(t *testing.T) {
	c := NewClock(1e-7) // 250 ms model = 25 ns wall: below the floor
	for _, d := range []time.Duration{0, 250 * time.Millisecond} {
		if c.Delays(d) {
			t.Fatalf("Delays(%v) at scale 1e-7, want false", d)
		}
		start := time.Now()
		c.Pace(d)
		if w := time.Since(start); w < paceFloor {
			t.Errorf("Pace(%v) returned after %v of wall time, want >= %v", d, w, paceFloor)
		}
	}
	before := c.Now()
	c.Pace(2000 * time.Second) // 0.2 ms wall
	if got := c.Now() - before; got < 2000*time.Second {
		t.Errorf("model time advanced %v during a 2000 s pace, want >= 2000 s", got)
	}
}

func TestClockConcurrentSleeps(t *testing.T) {
	c := NewClock(1e-6)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(time.Second)
			_ = c.Now()
		}()
	}
	wg.Wait()
	if now := c.Now(); now < time.Second {
		t.Errorf("Now() = %v after 50 concurrent 1s sleeps, want >= 1s", now)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("draw %d: RNGs with equal seeds diverged: %d vs %d", i, x, y)
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 20; i++ {
		if NewRNG(42).Intn(1<<30) != c.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Error("RNGs with different seeds produced identical streams")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	g := NewRNG(7)
	p := g.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm(64) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}
