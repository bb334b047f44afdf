package resilience

import (
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
)

func TestTransientClassifier(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
		retryable bool
	}{
		{nil, false, false},
		{api.ErrNoDevice, true, true},
		{api.ErrDeviceUnavailable, true, true},
		{api.ErrOverloaded, true, true},
		{api.ErrConnectionClosed, true, false},
		{api.ErrDeadlineExceeded, true, false},
		{api.ErrLaunchFailure, false, false},
		{api.ErrInvalidDevicePointer, false, false},
		{api.ErrMemoryAllocation, false, false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.transient {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.transient)
		}
		if got := RetryableCall(c.err); got != c.retryable {
			t.Errorf("RetryableCall(%v) = %v, want %v", c.err, got, c.retryable)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 200 * time.Millisecond
	b := NewBackoff(base, cap, sim.NewRNG(7))
	envelope := base // upper bound of draw i is min(3*prev, cap)
	for i := 0; i < 50; i++ {
		hi := 3 * envelope
		if hi > cap {
			hi = cap
		}
		d := b.Next()
		if d < base || d > cap {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, base, cap)
		}
		if d > hi {
			t.Fatalf("draw %d: %v above envelope %v", i, d, hi)
		}
		envelope = d
	}
}

func TestBackoffDeterministicAndReset(t *testing.T) {
	seq := func() []time.Duration {
		b := NewBackoff(time.Millisecond, 100*time.Millisecond, sim.NewRNG(42))
		out := make([]time.Duration, 0, 10)
		for i := 0; i < 10; i++ {
			out = append(out, b.Next())
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}

	bo := NewBackoff(time.Millisecond, 100*time.Millisecond, sim.NewRNG(42))
	for i := 0; i < 10; i++ {
		bo.Next()
	}
	bo.Reset()
	if d := bo.Next(); d > 3*time.Millisecond {
		t.Fatalf("post-Reset draw %v above the initial 3*base envelope", d)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// No refill: exactly capacity tokens, ever — deterministic.
	b := NewBudget(3, 0, nil)
	for i := 0; i < 3; i++ {
		if !b.TrySpend() {
			t.Fatalf("spend %d refused with tokens left", i)
		}
	}
	for i := 0; i < 5; i++ {
		if b.TrySpend() {
			t.Fatal("spend granted from an empty budget")
		}
	}
	if b.Spent() != 3 || b.Denied() != 5 {
		t.Fatalf("spent=%d denied=%d, want 3/5", b.Spent(), b.Denied())
	}
}

func TestBudgetRefill(t *testing.T) {
	var now time.Duration
	b := NewBudget(2, 1, func() time.Duration { return now }) // 1 token per model second
	b.TrySpend()
	b.TrySpend()
	if b.TrySpend() {
		t.Fatal("budget not exhausted after capacity spends")
	}
	now += 1500 * time.Millisecond // refills 1.5 tokens
	if !b.TrySpend() {
		t.Fatal("refilled budget refused a spend")
	}
	if b.TrySpend() {
		t.Fatal("budget granted more than the refilled amount")
	}
	now += 10 * time.Second // cap at capacity, not unbounded
	if !b.TrySpend() || !b.TrySpend() {
		t.Fatal("capped refill refused capacity spends")
	}
	if b.TrySpend() {
		t.Fatal("budget exceeded its capacity after a long idle refill")
	}
}

func TestBreakerTransitions(t *testing.T) {
	var now time.Duration
	trips, heals := 0, 0
	b := NewBreaker(3, 100*time.Millisecond, func() time.Duration { return now })
	b.OnTransition(func() { trips++ }, func() { heals++ })

	if b.State() != BreakerClosed || !b.Allow() || !b.Ready() {
		t.Fatal("new breaker not closed/allowing")
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen || trips != 1 {
		t.Fatalf("state after threshold = %v trips=%d, want open/1", b.State(), trips)
	}
	if b.Allow() || b.Ready() {
		t.Fatal("open breaker allowed traffic inside the cooldown")
	}

	now += 100 * time.Millisecond
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admit = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller admitted during the half-open probe")
	}
	b.Failure() // probe failed: re-open, cooldown restarts
	if b.State() != BreakerOpen || trips != 2 {
		t.Fatalf("state after failed probe = %v trips=%d, want open/2", b.State(), trips)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed traffic before the new cooldown")
	}

	now += 100 * time.Millisecond
	if !b.Allow() {
		t.Fatal("second probe refused after cooldown")
	}
	b.Success()
	if b.State() != BreakerClosed || heals != 1 {
		t.Fatalf("state after successful probe = %v heals=%d, want closed/1", b.State(), heals)
	}
	if !b.Ready() || b.Trips() != 2 {
		t.Fatalf("healed breaker: ready=%v trips=%d, want true/2", b.Ready(), b.Trips())
	}
}

func TestBreakerSuccessResetsFailures(t *testing.T) {
	b := NewBreaker(3, time.Second, nil)
	b.Failure()
	b.Failure()
	b.Success() // consecutive counter must reset
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after interleaved success, want closed", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
}

func TestRetrierRetriesTransient(t *testing.T) {
	calls, retries := 0, 0
	r := NewRetrier(RetryPolicy{
		MaxAttempts: 5,
		OnRetry:     func() { retries++ },
	})
	err := r.Do(func() error {
		calls++
		if calls < 3 {
			return api.ErrDeviceUnavailable
		}
		return nil
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Fatalf("err=%v calls=%d retries=%d, want nil/3/2", err, calls, retries)
	}
}

func TestRetrierPermanentErrorNoRetry(t *testing.T) {
	calls := 0
	r := NewRetrier(RetryPolicy{MaxAttempts: 5})
	err := r.Do(func() error {
		calls++
		return api.ErrInvalidDevicePointer
	})
	if api.Code(err) != api.ErrInvalidDevicePointer || calls != 1 {
		t.Fatalf("err=%v calls=%d, want permanent error after 1 call", err, calls)
	}
}

func TestRetrierBudgetExhaustion(t *testing.T) {
	calls := 0
	budget := NewBudget(2, 0, nil) // no refill: deterministic exhaustion
	r := NewRetrier(RetryPolicy{MaxAttempts: 10, Budget: budget})
	err := r.Do(func() error {
		calls++
		return api.ErrOverloaded
	})
	// First try is free; the budget grants exactly 2 retries.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (1 free + 2 budgeted)", calls)
	}
	if api.Code(err) != api.ErrOverloaded {
		t.Fatalf("err = %v, want the operation's last error", err)
	}
	if budget.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", budget.Denied())
	}
}

func TestRetrierDeterministicSleeps(t *testing.T) {
	run := func() []time.Duration {
		var slept []time.Duration
		r := NewRetrier(RetryPolicy{
			MaxAttempts: 6,
			RNG:         sim.NewRNG(99).Fork("retry"),
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		})
		_ = r.Do(func() error { return api.ErrOverloaded })
		return slept
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("sleep counts = %d/%d, want 5 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
}
