package core

import (
	"testing"
	"time"

	"gvrt/internal/api"
)

// prefetchCycle drives the K→A→B launch cycle used by the prefetch
// tests: K displaces everything, A fits after evicting K, and B fits in
// the headroom left beside A — so once the predictor has seen A→B, the
// background worker can restore B during the think time before its
// launch. think > 0 leaves the worker a window; 0 races it on purpose.
func prefetchCycle(t *testing.T, c interface {
	Launch(api.LaunchCall) error
}, ptrs [3]api.DevPtr, think time.Duration) {
	t.Helper()
	for _, p := range ptrs {
		if err := c.Launch(api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{p}}); err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
}

// TestPrefetchEndToEnd checks the whole speculative path: the per-
// context predictor learns the A→B transition, the background worker
// restores B's residency between launches, and the next launch of B
// counts as a prefetch hit.
func TestPrefetchEndToEnd(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}

	k, err := c.Malloc(900 << 10) // displaces everything else
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Malloc(400 << 10) // evicts k, leaves headroom
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Malloc(200 << 10) // fits beside a: prefetchable
	if err != nil {
		t.Fatal(err)
	}

	ptrs := [3]api.DevPtr{k, a, b}
	for cycle := 0; cycle < 50; cycle++ {
		prefetchCycle(t, c, ptrs, 2*time.Millisecond)
		if env.rt.Metrics().PrefetchHits > 0 {
			break
		}
	}
	m := env.rt.Metrics()
	if m.PrefetchIssued == 0 {
		t.Fatalf("PrefetchIssued = 0 after repeated A→B transitions, want > 0 (skipped %d)", m.PrefetchSkipped)
	}
	if m.PrefetchHits == 0 {
		t.Fatalf("PrefetchHits = 0 with %d speculative swap-ins issued", m.PrefetchIssued)
	}
	// The counters reach a StatsCall reply too.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PrefetchHits < m.PrefetchHits || st.PrefetchIssued < m.PrefetchIssued {
		t.Fatalf("wire stats prefetch counters %d/%d behind metrics %d/%d",
			st.PrefetchIssued, st.PrefetchHits, m.PrefetchIssued, m.PrefetchHits)
	}
}

// TestPrefetchDisabled pins the opt-out: with DisablePrefetch no
// speculation is ever issued, while the workload itself behaves the
// same.
func TestPrefetchDisabled(t *testing.T) {
	env := newEnv(t, Config{DisablePrefetch: true}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	k, _ := c.Malloc(900 << 10)
	a, _ := c.Malloc(400 << 10)
	b, _ := c.Malloc(200 << 10)
	ptrs := [3]api.DevPtr{k, a, b}
	for cycle := 0; cycle < 5; cycle++ {
		prefetchCycle(t, c, ptrs, 0)
	}
	m := env.rt.Metrics()
	if m.PrefetchIssued != 0 || m.PrefetchHits != 0 || m.PrefetchSkipped != 0 {
		t.Fatalf("prefetch counters %d/%d/%d with DisablePrefetch, want all 0",
			m.PrefetchIssued, m.PrefetchHits, m.PrefetchSkipped)
	}
}
