package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/failover"
	"gvrt/internal/memmgr"
)

// fencedEnv builds a runtime fenced by a lease table whose model clock
// the test moves by hand.
func fencedEnv(t *testing.T) (*testEnv, *failover.Table, *atomic.Int64) {
	t.Helper()
	clock := new(atomic.Int64)
	table := failover.NewTable(time.Hour, func() time.Duration { return time.Duration(clock.Load()) })
	return newEnv(t, Config{Leases: table, NodeName: "src"}, smallSpec(1<<20, 1)), table, clock
}

// TestCachedLeaseCellFenced: the fence goes through the lease cell the
// context cached when it acquired, and that cell stops passing the
// moment the lease is released, revoked or claimed by a peer after it
// lapsed.
func TestCachedLeaseCellFenced(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(*testing.T, *failover.Table, *atomic.Int64, int64)
	}{
		{"released", func(t *testing.T, tbl *failover.Table, _ *atomic.Int64, id int64) {
			tbl.Release(id, "src")
			// A fresh lease restarts the epoch chain at the epoch the
			// context remembers; its released cell must still fail.
			if _, err := tbl.Acquire(id, "src"); err != nil {
				t.Fatal(err)
			}
		}},
		{"revoked", func(_ *testing.T, tbl *failover.Table, _ *atomic.Int64, id int64) { tbl.Revoke(id) }},
		{"stolen", func(t *testing.T, tbl *failover.Table, clock *atomic.Int64, id int64) {
			clock.Add(int64(2 * time.Hour))
			if _, _, err := tbl.Claim(id, "dst"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, table, clock := fencedEnv(t)
			c := env.client()
			defer c.Close()
			if _, err := c.Malloc(16); err != nil {
				t.Fatalf("malloc while holding the lease: %v", err)
			}
			id, err := c.SessionID()
			if err != nil {
				t.Fatal(err)
			}
			tc.lose(t, table, clock, id)
			if _, err := c.Malloc(16); !errors.Is(err, api.ErrFenced) {
				t.Fatalf("malloc after the lease was %s: err = %v, want ErrFenced", tc.name, err)
			}
		})
	}
}

// TestResumeRebindsLeaseCell: resume moves the context onto the resumed
// session's lease, so the fence follows the new session ID and no
// longer the pre-resume one, whose lease is released.
func TestResumeRebindsLeaseCell(t *testing.T) {
	env, table, _ := fencedEnv(t)
	const session = 42
	if err := env.rt.adoptImage(&ckptlog.ImageRecord{Image: memmgr.ContextImage{CtxID: session}}, "test"); err != nil {
		t.Fatal(err)
	}

	c := env.client()
	defer c.Close()
	oldID, err := c.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Resume(session); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Lookup(oldID); ok {
		t.Fatalf("pre-resume session %d still holds a lease", oldID)
	}
	if _, err := c.Malloc(16); err != nil {
		t.Fatalf("malloc on the resumed session: %v", err)
	}
	table.Revoke(session)
	if _, err := c.Malloc(16); !errors.Is(err, api.ErrFenced) {
		t.Fatalf("malloc after the resumed session's lease was revoked: err = %v, want ErrFenced", err)
	}
}
