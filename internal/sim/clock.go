// Package sim provides the model-time substrate on which the whole
// simulation runs.
//
// The paper's evaluation is expressed in wall-clock seconds on real
// hardware. This reproduction keeps every duration in "model time"
// (model seconds map 1:1 to the paper's seconds) but executes them as
// scaled-down wall-clock sleeps, so that real goroutine concurrency —
// queueing, overlap of CPU and GPU phases, contention on the dispatcher —
// produces the timing behaviour, while the full evaluation suite runs in
// seconds instead of hours. Inside a testing/synctest bubble the same
// Clock runs in virtual time, with no mode to select: model time is then
// a function of the inputs, not of the host's load, provided every wait
// above the clock blocks durably (a sleep, a channel, a sync.Cond; never
// a sync.Mutex held across a sleep).
//
// A Clock with Scale = 0.001 executes one model second as one wall
// millisecond. All packages in this module take durations in model time
// and route every delay through a Clock.
package sim

import (
	"math"
	"runtime"
	"time"
)

// DefaultScale is the default wall-seconds-per-model-second factor:
// one model second runs as one wall millisecond.
const DefaultScale = 1e-3

// Clock converts model time to scaled wall time. The zero value is not
// usable; construct with NewClock. A Clock is safe for concurrent use.
type Clock struct {
	scale float64
	start time.Time
}

// NewClock returns a Clock that executes one model second in scale wall
// seconds. A scale <= 0 falls back to DefaultScale.
func NewClock(scale float64) *Clock {
	if scale <= 0 {
		scale = DefaultScale
	}
	return &Clock{scale: scale, start: time.Now()}
}

// Scale reports the wall-seconds-per-model-second factor.
func (c *Clock) Scale() float64 { return c.scale }

// Now returns the model time elapsed since the clock was created. It
// saturates at the largest Duration rather than overflowing: at scale
// 1e-9 that is reached about 9.2 wall seconds after creation, and model
// time must never run negative.
func (c *Clock) Now() time.Duration {
	if m := float64(time.Since(c.start)) / c.scale; m < math.MaxInt64 {
		return time.Duration(m)
	}
	return math.MaxInt64
}

// sleepFloor is the empirically observed minimum wall duration of
// time.Sleep on coarse-timer kernels (~1.2 ms). Wall delays below
// spinCutoff are executed as a Gosched spin, which is accurate to a few
// microseconds even under heavy goroutine concurrency; longer delays
// sleep for all but the last sleepFloor*2 and spin the remainder.
const (
	sleepFloor = 1200 * time.Microsecond
	spinCutoff = 3 * time.Millisecond
)

// Sleep blocks for d of model time (executed as d*scale of wall time).
// Negative or zero durations return immediately.
//
// The wall-clock delay is realised with a hybrid timer: the bulk via
// time.Sleep and the tail (below the OS timer granularity) via a
// cooperative spin, so that sub-millisecond wall delays — which carry
// multi-millisecond model meaning at small scales — keep their ratios.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	sleepWall(c.wall(d))
}

// resolutionFloor bounds the fast path below: wall delays this short
// are finer than a clock read can resolve, so the deadline spin would
// expire on its very first check — after paying two clock reads. The
// fast path skips the reads and returns at once, which is the same
// observable behaviour (no yield, immediate return) at a fraction of
// the cost; experiment scales (1e-6 and up) put every meaningful model
// delay well above this threshold.
const resolutionFloor = 80 * time.Nanosecond

// Delays reports whether Sleep(d) waits at all: a model duration whose
// wall length is at or below the resolution floor returns at once.
func (c *Clock) Delays(d time.Duration) bool { return c.wall(d) > resolutionFloor }

// paceFloor is the real pause Pace takes where Sleep would not wait.
const paceFloor = time.Microsecond

// Pace is Sleep for a loop that paces itself by the clock: where Sleep(d)
// would return at once (!Delays(d)), Pace still parks for paceFloor of
// wall time, so the loop never spins a CPU and, inside a synctest
// bubble, lets virtual time advance. The per-call path keeps Sleep.
func (c *Clock) Pace(d time.Duration) {
	if c.Delays(d) {
		c.Sleep(d)
		return
	}
	time.Sleep(paceFloor)
}

// sleepWall delays for approximately w of wall time. A clock that does
// not move across a yield is a bubble's, which moves only while every
// goroutine is blocked, so the remainder is slept out instead of spun.
func sleepWall(w time.Duration) {
	if w <= resolutionFloor {
		return
	}
	now := time.Now()
	deadline := now.Add(w)
	if w > spinCutoff {
		time.Sleep(w - 2*sleepFloor)
		now = time.Now()
	}
	for now.Before(deadline) {
		runtime.Gosched()
		next := time.Now()
		if next.Equal(now) {
			time.Sleep(deadline.Sub(next))
			return
		}
		now = next
	}
}

// wall converts a model duration to a wall duration.
func (c *Clock) wall(d time.Duration) time.Duration {
	w := time.Duration(float64(d) * c.scale)
	if w <= 0 && d > 0 {
		w = time.Nanosecond
	}
	return w
}
