// Package failover implements the cluster failover plane (DESIGN.md
// §13): epoch-numbered session leases with write fencing, the CRC-framed
// wire protocol that ships a checkpointed context image between nodes
// with resumable offsets, and pending-operation records that make a
// crashed import resumable or cleanly abortable. Promotion onto a peer
// is an operator action (api.AdoptCall) followed by the client's resume,
// whose Claim takes the dead owner's lapsed lease.
//
// The invariant the plane maintains: for every session there is at most
// one node whose (owner, epoch) pair matches the lease table, and only
// that node's mutating calls pass the fence. Any takeover bumps the
// epoch, so a deposed owner — however late its in-flight write arrives —
// is rejected with api.ErrFenced instead of corrupting state it no
// longer owns.
package failover

import (
	"math"
	"sync"
	"time"

	"gvrt/internal/api"
)

// DefaultTTL is the lease lifetime when NewTable is given none. Leases
// renew on every served call (the fence piggybacks renewal past half
// TTL), so a healthy owner never comes close to expiry.
const DefaultTTL = 2 * time.Second

// Lease is one session's ownership record.
type Lease struct {
	Session int64
	// Owner names the holding node; "" means revoked/unowned (the
	// epoch chain persists so a revoked lease still fences its past
	// holder).
	Owner string
	// Epoch increments on every ownership change. Fence checks compare
	// the holder's remembered epoch against this — a claim and a claim
	// back still fence the original holder.
	Epoch uint64
	// Expires is the model time at which the lease lapses and another
	// node may Claim it. Expiry alone does not fence the owner: a slow
	// owner that renews before anyone claims keeps its epoch (the
	// renewal and the claim serialise on the session's cell lock;
	// exactly one wins).
	Expires time.Duration
}

// Table is the cluster's session-lease registry. One Table is shared by
// every node of a cluster (the model of an external lease service).
// Each session's record lives in its own Cell behind its own lock; the
// table's lock guards only the map from session to cell, and table
// operations take table lock → cell lock (Check drops the first before
// taking the second). A holder that cached its cell (Claim) fences
// through Cell.Check without touching the table, so sessions never
// contend with one another on the per-call path. Renew-versus-claim
// still serialises on the one cell lock, which is what makes that race
// well defined. Safe for concurrent use.
type Table struct {
	mu     sync.Mutex
	ttl    time.Duration
	now    func() time.Duration
	leases map[int64]*Cell
}

// Cell is one session's lease record with its own lock. A Release marks
// it dead as it leaves the table, so a cached handle can never pass the
// fence after the lease it named is gone — not even once a fresh lease
// for the same session starts a new epoch chain in a new cell.
type Cell struct {
	mu   sync.Mutex
	l    Lease
	dead bool
	// ttl and now are the table's, copied so that a fence reads nothing
	// that shares a cache line with the table's lock.
	ttl time.Duration
	now func() time.Duration
}

// NewTable builds a lease table. ttl <= 0 means DefaultTTL; now is the
// cluster's model clock (sim.Clock.Now).
func NewTable(ttl time.Duration, now func() time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Table{ttl: ttl, now: now, leases: make(map[int64]*Cell)}
}

// Acquire is Claim for a caller that does not fence through the cell.
func (t *Table) Acquire(session int64, owner string) (Lease, error) {
	_, l, err := t.Claim(session, owner)
	return l, err
}

// Claim takes (or retakes) the session's lease for owner and hands back
// the session's cell, for a holder that fences its calls through
// Cell.Check. It is the one way a lease changes hands. A fresh session
// starts at epoch 1; re-claiming one's own lease renews it at the same
// epoch, even past expiry; a lease that lapsed or was revoked is taken
// over at epoch+1. A live lease held by another node fails with
// api.ErrFenced.
func (t *Table) Claim(session int64, owner string) (*Cell, Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	c := t.leases[session]
	if c == nil {
		c = &Cell{l: Lease{Session: session, Owner: owner, Epoch: 1, Expires: expiry(now, t.ttl)}, ttl: t.ttl, now: t.now}
		t.leases[session] = c
		return c, c.l, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.l.Owner == owner:
	case c.l.Owner == "" || now > c.l.Expires:
		c.l.Owner = owner
		c.l.Epoch++
	default:
		return nil, Lease{}, api.ErrFenced
	}
	c.l.Expires = expiry(now, t.ttl)
	return c, c.l, nil
}

// Check is the write fence: it verifies that (owner, epoch) still names
// the session's holder, and extends the lease when it is past half its
// TTL (renewed reports that). Any mismatch — stolen, revoked, released —
// fails with api.ErrFenced.
func (t *Table) Check(session int64, owner string, epoch uint64) (renewed bool, err error) {
	t.mu.Lock()
	c := t.leases[session]
	t.mu.Unlock()
	return c.Check(owner, epoch)
}

// Check is Table.Check on a cached cell, under the cell's lock alone. A
// nil cell — a holder that never acquired — is fenced.
func (c *Cell) Check(owner string, epoch uint64) (renewed bool, err error) {
	if c == nil {
		return false, api.ErrFenced
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || c.l.Owner != owner || c.l.Epoch != epoch {
		return false, api.ErrFenced
	}
	now := c.now()
	if c.l.Expires-now < c.ttl/2 {
		c.l.Expires = expiry(now, c.ttl)
		return true, nil
	}
	return false, nil
}

// expiry is now+ttl, saturating: a clock pinned at its maximum keeps a
// renewed lease live instead of wrapping its expiry into the past.
func expiry(now, ttl time.Duration) time.Duration {
	if now > math.MaxInt64-ttl {
		return math.MaxInt64
	}
	return now + ttl
}

// cell runs f on the session's record under table lock → cell lock; f
// is not called for an unknown session.
func (t *Table) cell(session int64, f func(c *Cell)) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.leases[session]
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c)
	return true
}

// Release drops the session's lease if owner still holds it (orderly
// context exit). The record is deleted outright and its cell marked
// dead: a released session is gone, and a later Claim starts a new
// epoch chain in a new cell.
func (t *Table) Release(session int64, owner string) {
	t.cell(session, func(c *Cell) {
		if c.l.Owner == owner {
			c.dead = true
			delete(t.leases, session)
		}
	})
}

// Revoke force-expires the session's lease and bumps the epoch, as if a
// phantom peer claimed and abandoned it — the lease-expiry race made
// deterministic. Fault injection (PointLeaseCheck), a draining daemon
// and tests use it; the prior owner's next fence check fails with
// ErrFenced, and anyone may Claim the session afterwards.
func (t *Table) Revoke(session int64) {
	t.cell(session, func(c *Cell) {
		c.l.Owner = ""
		c.l.Epoch++
	})
}

// Lookup returns the session's current lease.
func (t *Table) Lookup(session int64) (l Lease, ok bool) {
	ok = t.cell(session, func(c *Cell) { l = c.l })
	return l, ok
}
