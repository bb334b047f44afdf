package failover

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
)

// fakeClock is a hand-advanced model clock for deterministic expiry.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration      { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t += d }

func newTestTable(ttl time.Duration) (*Table, *fakeClock) {
	c := &fakeClock{}
	return NewTable(ttl, c.now), c
}

func TestLeaseLifecycle(t *testing.T) {
	tbl, clk := newTestTable(10 * time.Second)

	// Fresh acquire starts the epoch chain at 1.
	l, err := tbl.Acquire(1, "a")
	if err != nil || l.Epoch != 1 || l.Owner != "a" {
		t.Fatalf("fresh acquire = %+v, %v", l, err)
	}
	// Same-owner re-acquire renews at the same epoch.
	clk.advance(5 * time.Second)
	l2, err := tbl.Acquire(1, "a")
	if err != nil || l2.Epoch != 1 || l2.Expires <= l.Expires {
		t.Fatalf("renewal = %+v, %v (prior %+v)", l2, err, l)
	}
	// A live lease fences other acquirers.
	if _, err := tbl.Acquire(1, "b"); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("foreign acquire of live lease err = %v, want ErrFenced", err)
	}
	// Check passes for the holder, fails for anyone else.
	if _, err := tbl.Check(1, "a", 1); err != nil {
		t.Fatalf("holder check: %v", err)
	}
	if _, err := tbl.Check(1, "b", 1); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("foreign check err = %v, want ErrFenced", err)
	}
	if _, err := tbl.Check(1, "a", 2); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("wrong-epoch check err = %v, want ErrFenced", err)
	}
	// Orderly release deletes the record outright.
	tbl.Release(1, "a")
	if _, ok := tbl.Lookup(1); ok {
		t.Fatal("lease survived release")
	}
	// A released session is gone, not lapsed: anyone starts it afresh.
	if l, err := tbl.Acquire(1, "b"); err != nil || l.Epoch != 1 {
		t.Fatalf("claim of a released session = %+v, %v; want a fresh epoch 1", l, err)
	}
}

func TestLeaseCheckRenewsPastHalfTTL(t *testing.T) {
	tbl, clk := newTestTable(10 * time.Second)
	if _, err := tbl.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	// Within the first half of the TTL: no renewal.
	clk.advance(2 * time.Second)
	if renewed, err := tbl.Check(1, "a", 1); err != nil || renewed {
		t.Fatalf("early check = renewed %v, err %v; want no renewal", renewed, err)
	}
	// Past half TTL: the fence piggybacks a renewal.
	clk.advance(4 * time.Second)
	renewed, err := tbl.Check(1, "a", 1)
	if err != nil || !renewed {
		t.Fatalf("late check = renewed %v, err %v; want renewal", renewed, err)
	}
	l, _ := tbl.Lookup(1)
	if l.Expires != clk.now()+10*time.Second {
		t.Fatalf("renewed expiry = %v, want %v", l.Expires, clk.now()+10*time.Second)
	}
}

// TestLeaseStealOnlyAfterExpiry: a foreign Claim takes a lease over
// only once it has lapsed.
func TestLeaseStealOnlyAfterExpiry(t *testing.T) {
	tbl, clk := newTestTable(10 * time.Second)
	if _, err := tbl.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	// Live lease: a foreign claim is refused.
	if _, _, err := tbl.Claim(1, "b"); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("claim of live lease err = %v, want ErrFenced", err)
	}

	clk.advance(11 * time.Second)
	// Expiry alone moves nothing: the lapsed lease still names its owner.
	if l, ok := tbl.Lookup(1); !ok || l.Owner != "a" || l.Epoch != 1 {
		t.Fatalf("lapsed lease = %+v, %v; want a at epoch 1", l, ok)
	}
	_, l, err := tbl.Claim(1, "b")
	if err != nil || l.Owner != "b" || l.Epoch != 2 {
		t.Fatalf("claim after expiry = %+v, %v", l, err)
	}
	// The deposed owner's stale (owner, epoch) fails the fence — even
	// though its lease "merely" expired before the claim.
	if _, err := tbl.Check(1, "a", 1); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("deposed owner check err = %v, want ErrFenced", err)
	}
	// An expired-but-unclaimed lease can be renewed by its owner, at its
	// epoch: the renew-versus-claim race is settled by lock order alone.
	clk.advance(11 * time.Second)
	if l, err := tbl.Acquire(1, "b"); err != nil || l.Epoch != 2 {
		t.Fatalf("owner renewal of expired lease = %+v, %v; want epoch 2", l, err)
	}
	if _, _, err := tbl.Claim(1, "c"); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("claim after owner renewed err = %v, want ErrFenced", err)
	}
}

// TestLeaseStealAndStealBackStillFences: a lease claimed away and
// claimed back is at epoch 3, and the first holder's epoch 1 stays
// fenced.
func TestLeaseStealAndStealBackStillFences(t *testing.T) {
	tbl, clk := newTestTable(time.Second)
	if _, err := tbl.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	if _, _, err := tbl.Claim(1, "b"); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	_, l, err := tbl.Claim(1, "a") // back to the original node…
	if err != nil || l.Epoch != 3 {
		t.Fatalf("claim back = %+v, %v", l, err)
	}
	// …but its old epoch is still fenced: only the new epoch passes.
	if _, err := tbl.Check(1, "a", 1); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("old-epoch check after claim back err = %v, want ErrFenced", err)
	}
	if _, err := tbl.Check(1, "a", 3); err != nil {
		t.Fatalf("new-epoch check: %v", err)
	}
}

func TestLeaseRevoke(t *testing.T) {
	tbl, _ := newTestTable(time.Hour)
	if _, err := tbl.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	tbl.Revoke(1)
	// The phantom claim fences the holder immediately, without expiry,
	// and leaves the lease unowned…
	if _, err := tbl.Check(1, "a", 1); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("check after revoke err = %v, want ErrFenced", err)
	}
	if l, ok := tbl.Lookup(1); !ok || l.Owner != "" || l.Epoch != 2 {
		t.Fatalf("revoked lease = %+v, %v; want unowned at epoch 2", l, ok)
	}
	// …so anyone may acquire it, at a bumped epoch.
	l, err := tbl.Acquire(1, "b")
	if err != nil || l.Epoch != 3 {
		t.Fatalf("acquire after revoke = %+v, %v (want epoch 3)", l, err)
	}
	// Revoking an unknown session is a no-op.
	tbl.Revoke(42)
	if _, ok := tbl.Lookup(42); ok {
		t.Fatal("revoke materialised a lease")
	}
}

func TestLeaseReleaseByNonOwnerIgnored(t *testing.T) {
	tbl, _ := newTestTable(time.Hour)
	if _, err := tbl.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	tbl.Release(1, "b") // stale release from a deposed node
	if l, ok := tbl.Lookup(1); !ok || l.Owner != "a" {
		t.Fatalf("lease after foreign release = %+v, %v; want intact", l, ok)
	}
}

// TestCellFencedAfterRelease: a cached cell never passes once the lease
// it named was released — not even after a fresh lease for the same
// session restarts the epoch chain in a new cell.
func TestCellFencedAfterRelease(t *testing.T) {
	tbl, _ := newTestTable(time.Hour)
	c, l, err := tbl.Claim(1, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check("a", l.Epoch); err != nil {
		t.Fatalf("holder check through its cell: %v", err)
	}
	tbl.Release(1, "a")
	if _, err := c.Check("a", l.Epoch); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("check after release err = %v, want ErrFenced", err)
	}
	if l2, err := tbl.Acquire(1, "a"); err != nil || l2.Epoch != l.Epoch {
		t.Fatalf("fresh acquire after release = %+v, %v", l2, err)
	}
	if _, err := c.Check("a", l.Epoch); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("released cell passed once a new lease reused its epoch: %v", err)
	}
	var never *Cell
	if _, err := never.Check("a", 1); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("nil cell err = %v, want ErrFenced", err)
	}
}

// TestCellRenewVersusSteal races owners renewing through cached cells
// against peers claiming on expiry, on a clock every operation moves.
// For each epoch at most one owner's fence may ever pass.
func TestCellRenewVersusSteal(t *testing.T) {
	var clock atomic.Int64
	tbl := NewTable(10*time.Millisecond, func() time.Duration { return time.Duration(clock.Load()) })
	if _, err := tbl.Acquire(1, "n0"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	passed := map[uint64]map[string]bool{}
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		owner := fmt.Sprintf("n%d", n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				clock.Add(int64(time.Millisecond))
				c, l, err := tbl.Claim(1, owner)
				if err != nil {
					continue
				}
				for j := 0; j < 3; j++ {
					clock.Add(int64(time.Millisecond))
					if _, err := c.Check(owner, l.Epoch); err != nil {
						break
					}
					mu.Lock()
					if passed[l.Epoch] == nil {
						passed[l.Epoch] = map[string]bool{}
					}
					passed[l.Epoch][owner] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(passed) < 2 {
		t.Fatalf("only %d epochs saw a passing fence; the race never ran", len(passed))
	}
	for epoch, owners := range passed {
		if len(owners) > 1 {
			t.Errorf("epoch %d: fences of %v all passed", epoch, owners)
		}
	}
}
