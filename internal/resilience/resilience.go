// Package resilience holds the self-healing policy primitives the
// runtime composes into its defense-in-depth stack: an error classifier
// (transient vs. permanent), decorrelated-jitter exponential backoff, a
// token-bucket retry budget, a closed/open/half-open circuit breaker,
// and a retrier that ties them together.
//
// Everything here is model-time driven: clocks and sleeps are injected
// (usually sim.Clock.Now / sim.Clock.Sleep) and randomness comes from a
// seeded sim.RNG, so resilience behaviour replays deterministically
// under the chaos harness exactly like the faults it reacts to.
//
// The primitives are deliberately small and free of runtime knowledge;
// transport wires the deadline guard, cluster wires the breaker around
// its peer link, core wires device re-admission and refuses connections
// while draining, and the frontend wires transparent retries.
package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
)

// Transient reports whether err is worth retrying: the condition it
// reports can clear on its own (a device came back, the breaker closed,
// load dropped) as opposed to a permanent fault of the call itself
// (bad pointer, unknown kernel, out-of-range argument).
func Transient(err error) bool {
	if err == nil {
		return false
	}
	switch api.Code(err) {
	case api.ErrNoDevice, api.ErrDeviceUnavailable, api.ErrOverloaded,
		api.ErrConnectionClosed, api.ErrDeadlineExceeded:
		return true
	case api.ErrFenced:
		// Explicitly permanent: the session's lease moved to another
		// node, so no retry on this connection can ever succeed — the
		// client must reconnect to the new owner and Resume. Spending
		// retry budget here would slow exactly the failover it should
		// be following.
		return false
	}
	return false
}

// RetryableCall reports whether err is transient AND left the
// connection intact, so the same Client can simply re-issue the call.
// Connection-level failures (closed, deadline-torn) are transient for a
// caller that can reconnect, but not for one holding the dead conn.
func RetryableCall(err error) bool {
	if !Transient(err) {
		return false
	}
	switch api.Code(err) {
	case api.ErrConnectionClosed, api.ErrDeadlineExceeded:
		return false
	}
	return true
}

// Backoff produces decorrelated-jitter exponential backoff delays:
// each delay is drawn uniformly from [base, prev*3], capped at cap.
// Jitter decorrelates retry storms from many clients; the growing upper
// envelope keeps pressure off a struggling resource. Not safe for
// concurrent use (give each goroutine its own, or guard externally).
type Backoff struct {
	base, cap time.Duration
	prev      time.Duration
	rng       *sim.RNG
}

// NewBackoff builds a backoff between base and cap, jittered by rng.
func NewBackoff(base, cap time.Duration, rng *sim.RNG) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	return &Backoff{base: base, cap: cap, prev: base, rng: rng}
}

// Next returns the next delay, in [base, cap].
func (b *Backoff) Next() time.Duration {
	hi := 3 * b.prev
	if hi > b.cap {
		hi = b.cap
	}
	d := b.base
	if hi > b.base {
		d += time.Duration(b.rng.Float64() * float64(hi-b.base))
	}
	b.prev = d
	return d
}

// Reset restores the initial (smallest) envelope after a success.
func (b *Backoff) Reset() { b.prev = b.base }

// Budget is a token-bucket retry budget shared by many callers: every
// retry spends one token, tokens refill at a bounded rate in model
// time. When an outage strikes N clients at once, the budget caps the
// cluster-wide retry amplification at the refill rate instead of N×
// the per-client retry count. Safe for concurrent use.
type Budget struct {
	mu            sync.Mutex
	tokens        float64
	capacity      float64
	refillPerSec  float64
	last          time.Duration
	now           func() time.Duration
	spent, denied atomic.Int64
}

// NewBudget builds a budget of capacity tokens refilling at
// refillPerSec tokens per model second, measured against now (usually
// sim.Clock.Now). A nil now or refillPerSec <= 0 disables refill: the
// bucket then holds exactly capacity tokens, ever.
func NewBudget(capacity int, refillPerSec float64, now func() time.Duration) *Budget {
	if capacity < 1 {
		capacity = 1
	}
	b := &Budget{tokens: float64(capacity), capacity: float64(capacity), refillPerSec: refillPerSec, now: now}
	if now != nil {
		b.last = now()
	}
	return b
}

// TrySpend takes one token, reporting whether the retry may proceed.
func (b *Budget) TrySpend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.now != nil && b.refillPerSec > 0 {
		now := b.now()
		if dt := now - b.last; dt > 0 {
			b.tokens += dt.Seconds() * b.refillPerSec
			if b.tokens > b.capacity {
				b.tokens = b.capacity
			}
		}
		b.last = now
	}
	if b.tokens < 1 {
		b.denied.Add(1)
		return false
	}
	b.tokens--
	b.spent.Add(1)
	return true
}

// Spent reports how many retries the budget has granted.
func (b *Budget) Spent() int64 { return b.spent.Load() }

// Denied reports how many retries the budget has refused.
func (b *Budget) Denied() int64 { return b.denied.Load() }

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome decides
	// between re-closing and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-link circuit breaker. Closed, it counts consecutive
// failures and trips open at the threshold; open, it refuses traffic
// for a cooldown; after the cooldown one caller is admitted half-open
// as a probe, and its outcome re-closes or re-trips the breaker.
// Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Duration
	probing  bool

	trips atomic.Int64
	// onTrip/onHeal fire outside the breaker lock, once per transition.
	onTrip, onHeal func()
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and allows a half-open probe cooldown model time later
// (now is usually sim.Clock.Now).
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 100 * time.Millisecond
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// OnTransition registers callbacks fired when the breaker trips open
// (trip) and when it re-closes after having tripped (heal). Either may
// be nil. Call before the breaker is shared.
func (b *Breaker) OnTransition(trip, heal func()) { b.onTrip, b.onHeal = trip, heal }

// Allow reports whether a caller may use the link right now. Open
// breakers whose cooldown has elapsed transition to half-open and admit
// exactly one caller — the probe — until Success or Failure resolves it.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now != nil && b.now()-b.openedAt >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Ready reports whether the breaker is closed — the cheap load-signal
// check shouldOffload uses without consuming the half-open probe slot.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerClosed
}

// Success records a successful use of the link: failures reset, and a
// half-open probe re-closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	healed := b.state != BreakerClosed
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
	if healed && b.onHeal != nil {
		b.onHeal()
	}
}

// Failure records a failed use of the link. The breaker trips open at
// threshold consecutive closed-state failures, and immediately from
// half-open (the probe failed; restart the cooldown).
func (b *Breaker) Failure() {
	b.mu.Lock()
	tripped := false
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			tripped = true
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		tripped = true
	case BreakerOpen:
		// Late failures from calls in flight when the breaker tripped;
		// the cooldown restarts so the probe waits for quiet.
	}
	if tripped || b.state == BreakerOpen {
		if b.now != nil {
			b.openedAt = b.now()
		}
		b.probing = false
	}
	if tripped {
		b.trips.Add(1)
	}
	b.mu.Unlock()
	if tripped && b.onTrip != nil {
		b.onTrip()
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() int64 { return b.trips.Load() }

// Retrier retries an operation on transient errors, under a budget,
// with jittered backoff between attempts. Safe for concurrent use: the
// backoff state is guarded, and the budget is already concurrent.
type Retrier struct {
	maxAttempts int
	budget      *Budget
	sleep       func(time.Duration)
	retryIf     func(error) bool
	onRetry     func()

	mu      sync.Mutex
	backoff *Backoff
}

// RetryPolicy configures a Retrier. The zero value of any field picks a
// sensible default.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per operation (first call
	// included); 0 means 4.
	MaxAttempts int
	// BackoffBase/BackoffCap bound the jittered delay between tries;
	// zero means 10ms / 500ms of model time.
	BackoffBase, BackoffCap time.Duration
	// Budget, when set, is consulted before every retry (not the first
	// try); nil retries without a budget.
	Budget *Budget
	// RNG seeds the backoff jitter; nil uses a fixed seed.
	RNG *sim.RNG
	// Sleep realises backoff delays (usually sim.Clock.Sleep); nil
	// skips the delays.
	Sleep func(time.Duration)
	// RetryIf classifies retryable errors; nil means RetryableCall.
	RetryIf func(error) bool
	// OnRetry fires once per spent retry (metrics hook).
	OnRetry func()
}

// NewRetrier builds a retrier from the policy.
func NewRetrier(p RetryPolicy) *Retrier {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 10 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 500 * time.Millisecond
	}
	if p.RetryIf == nil {
		p.RetryIf = RetryableCall
	}
	return &Retrier{
		maxAttempts: p.MaxAttempts,
		budget:      p.Budget,
		sleep:       p.Sleep,
		retryIf:     p.RetryIf,
		onRetry:     p.OnRetry,
		backoff:     NewBackoff(p.BackoffBase, p.BackoffCap, p.RNG),
	}
}

// Do runs f, retrying on errors retryIf accepts, until success, a
// permanent error, attempt exhaustion, or budget exhaustion. The
// returned error is f's last error, so callers keep seeing CUDA codes.
func (r *Retrier) Do(f func() error) error {
	var err error
	for attempt := 0; attempt < r.maxAttempts; attempt++ {
		if attempt > 0 {
			if r.budget != nil && !r.budget.TrySpend() {
				return err
			}
			if r.onRetry != nil {
				r.onRetry()
			}
			if r.sleep != nil {
				r.mu.Lock()
				d := r.backoff.Next()
				r.mu.Unlock()
				r.sleep(d)
			}
		}
		if err = f(); err == nil {
			r.mu.Lock()
			r.backoff.Reset()
			r.mu.Unlock()
			return nil
		}
		if !r.retryIf(err) {
			return err
		}
	}
	return err
}
