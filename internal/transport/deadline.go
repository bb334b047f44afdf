package transport

import (
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
)

// This file implements the deadline guard of the resilience layer: a
// connection wrapper that bounds every synchronous operation against
// the model clock, so no call can hang past its deadline no matter what
// the other side (a partitioned peer, a wedged dispatcher) does.
//
// The transport is strictly synchronous — one call, one reply, in
// order. A wrapper that merely returned early on timeout would leave
// the abandoned reply in flight to satisfy the NEXT call, silently
// desynchronising the stream. Deadline expiry therefore tears the
// connection down, exactly like a socket receive-timeout followed by
// close: the abandoned inner operation observes ErrClosed, and the
// caller gets api.ErrDeadlineExceeded on a connection it must not
// reuse.

// deadlineWallGrace is the minimum WALL time an operation gets beyond
// its model deadline. At aggressive clock scales (1e-7 in tests) a
// model hour is mere wall microseconds — less than ordinary goroutine
// scheduling jitter — so a bare model deadline would misread a busy
// scheduler as a hang. A genuine hang still resolves within the grace;
// an operation that is merely slow to get scheduled does not lose its
// connection. At production clock scales the grace is far below any
// sane deadline and never engages.
const deadlineWallGrace = 250 * time.Millisecond

// deadlineConn bounds Call; see WithDeadline.
type deadlineConn struct {
	inner Conn
	clock *sim.Clock
	d     time.Duration
}

// WithDeadline wraps c so every Call completes within d of model time
// (plus a small wall-time grace; see deadlineWallGrace) or fails with
// api.ErrDeadlineExceeded, closing the connection. A nil clock or
// non-positive d returns c unchanged.
func WithDeadline(c Conn, clock *sim.Clock, d time.Duration) Conn {
	if clock == nil || d <= 0 {
		return c
	}
	return &deadlineConn{inner: c, clock: clock, d: d}
}

func (c *deadlineConn) Call(call api.Call) (api.Reply, error) {
	type outcome struct {
		r   api.Reply
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		r, err := c.inner.Call(call)
		ch <- outcome{r, err}
	}()
	select {
	case out := <-ch:
		return out.r, out.err
	case <-c.clock.After(c.d):
	}
	// Model deadline elapsed; grant the wall grace before declaring a
	// hang (scheduling jitter at tiny clock scales is not a hang).
	if rem := deadlineWallGrace - time.Since(start); rem > 0 {
		select {
		case out := <-ch:
			return out.r, out.err
		case <-time.After(rem):
		}
	}
	// Tear down: the reply (if it ever comes) must not leak into the
	// next call's slot.
	_ = c.inner.Close()
	return api.Reply{}, api.ErrDeadlineExceeded
}

func (c *deadlineConn) Close() error { return c.inner.Close() }
