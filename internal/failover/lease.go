// Package failover implements the cluster failover plane (DESIGN.md
// §13): epoch-numbered session leases with write fencing, the CRC-framed
// wire protocol that ships a checkpointed context image between nodes
// with resumable offsets, pending-operation records
// that make a crashed import resumable or cleanly abortable, and the
// monitor that promotes a peer for every session whose owner's lease
// expired.
//
// The invariant the plane maintains: for every session there is at most
// one node whose (owner, epoch) pair matches the lease table, and only
// that node's mutating calls pass the fence. Any steal bumps the epoch,
// so a deposed owner — however late its in-flight write arrives — is
// rejected with api.ErrFenced instead of corrupting state it no longer
// owns.
package failover

import (
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
	// the holder's remembered epoch against this — a steal-and-steal-
	// back still fences the original holder.
	Epoch uint64
	// Expires is the model time at which the lease lapses and becomes
	// stealable. Expiry alone does not fence the owner: a slow owner
	// that renews before anyone steals keeps its epoch (the renewal
	// and the steal serialise on the table lock; exactly one wins).
	Expires time.Duration
}

// Table is the cluster's session-lease registry. One Table is shared by
// every node of a cluster (the model of an external lease service);
// all operations serialise on its lock, which is what makes the
// renew-versus-steal race well defined. Safe for concurrent use.
type Table struct {
	mu     sync.Mutex
	ttl    time.Duration
	now    func() time.Duration
	leases map[int64]*Lease
}

// NewTable builds a lease table. ttl <= 0 means DefaultTTL; now is the
// cluster's model clock (sim.Clock.Now).
func NewTable(ttl time.Duration, now func() time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Table{ttl: ttl, now: now, leases: make(map[int64]*Lease)}
}

// Acquire takes (or retakes) the session's lease for owner. A fresh
// session starts at epoch 1; re-acquiring one's own lease renews it at
// the same epoch; an expired or revoked lease is taken over at epoch+1.
// A live lease held by another node fails with api.ErrFenced.
func (t *Table) Acquire(session int64, owner string) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	l := t.leases[session]
	switch {
	case l == nil:
		l = &Lease{Session: session, Owner: owner, Epoch: 1, Expires: now + t.ttl}
		t.leases[session] = l
	case l.Owner == owner:
		l.Expires = now + t.ttl
	case l.Owner == "" || now > l.Expires:
		l.Owner = owner
		l.Epoch++
		l.Expires = now + t.ttl
	default:
		return Lease{}, api.ErrFenced
	}
	return *l, nil
}

// Check is the write fence: it verifies that (owner, epoch) still names
// the session's holder, and extends the lease when it is past half its
// TTL (renewed reports that). Any mismatch — stolen, revoked, released —
// fails with api.ErrFenced.
func (t *Table) Check(session int64, owner string, epoch uint64) (renewed bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[session]
	if l == nil || l.Owner != owner || l.Epoch != epoch {
		return false, api.ErrFenced
	}
	now := t.now()
	if l.Expires-now < t.ttl/2 {
		l.Expires = now + t.ttl
		return true, nil
	}
	return false, nil
}

// Steal transfers an expired (or revoked) lease to newOwner at epoch+1.
// A lease still within its TTL cannot be stolen — the monitor must wait
// for expiry; a concurrent renewal by the owner defeats the steal.
func (t *Table) Steal(session int64, newOwner string) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[session]
	if l == nil {
		return Lease{}, api.ErrInvalidValue
	}
	if l.Owner != "" && t.now() <= l.Expires {
		return Lease{}, api.ErrFenced
	}
	l.Owner = newOwner
	l.Epoch++
	l.Expires = t.now() + t.ttl
	return *l, nil
}

// Release drops the session's lease if owner still holds it (orderly
// context exit). The record is deleted outright: a released session is
// gone, not stealable.
func (t *Table) Release(session int64, owner string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.leases[session]; l != nil && l.Owner == owner {
		delete(t.leases, session)
	}
}

// Revoke force-expires the session's lease and bumps the epoch, as if a
// phantom peer stole and abandoned it — the lease-expiry race made
// deterministic. Fault injection (PointLeaseCheck) and tests use it;
// the prior owner's next fence check fails with ErrFenced, and anyone
// may Acquire the session afterwards.
func (t *Table) Revoke(session int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.leases[session]; l != nil {
		l.Owner = ""
		l.Epoch++
	}
}

// Expired lists sessions whose lease is past its TTL and still has an
// owner — the failover monitor's work queue.
func (t *Table) Expired() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var ids []int64
	for id, l := range t.leases {
		if l.Owner != "" && now > l.Expires {
			ids = append(ids, id)
		}
	}
	return ids
}

// Lookup returns the session's current lease.
func (t *Table) Lookup(session int64) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.leases[session]; l != nil {
		return *l, true
	}
	return Lease{}, false
}
