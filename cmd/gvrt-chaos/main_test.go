package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"gvrt/internal/faultinject"
	"gvrt/internal/obs"
	"gvrt/internal/sim"
)

// TestMain lets the test binary double as the daemon child the torture
// modes re-exec.
func TestMain(m *testing.M) {
	if spec := os.Getenv(envChild); spec != "" {
		runChild(spec)
		return
	}
	os.Exit(m.Run())
}

// testRound is a one-session round with its own directory, armed at
// point/nth.
func testRound(t *testing.T, point faultinject.Point, nth uint64, timeout time.Duration) *round {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &round{scenario: scenario{name: t.Name(), point: point}, nth: nth, dir: t.TempDir(),
		exe: exe, rng: sim.NewRNG(1), sessions: 1, launches: 4, timeout: timeout}
}

// TestTortureModes runs every SIGKILL mode for one seed at its default
// round count: each verdict must hold, each armed point must fire and no
// scenario may be vacuous.
func TestTortureModes(t *testing.T) {
	for _, m := range []mode{tortureMode, failoverTorture, ctrlTorture} {
		t.Run(m.flag[1:], func(t *testing.T) {
			if code := m.run(1, m.rounds, 3, 12, time.Minute); code != 0 {
				t.Fatalf("gvrt-chaos %s -seed 1 exited %d", m.flag, code)
			}
		})
	}
}

// TestUnfiredCrashPointFails arms a pre-fsync crash at an occurrence the
// workload never reaches: the victim outlives it, and the round must
// fail rather than pass as a clean kill.
func TestUnfiredCrashPointFails(t *testing.T) {
	r := testRound(t, faultinject.PointJournalPreSync, 1000, 2*time.Second)
	if _, err := tortureRound(r); err == nil || !strings.Contains(err.Error(), "never fired") {
		t.Fatalf("tortureRound = %v, want a never-fired failure", err)
	}
}

// TestReapedChildKillsAtOnce reaps a child that died at its armed crash
// point: done must be closed, so a later kill — as every round defers —
// has nothing to wait for.
func TestReapedChildKillsAtOnce(t *testing.T) {
	r := testRound(t, faultinject.PointJournalPreSync, 1, time.Minute)
	victim, err := r.spawn(childOpts{Journal: r.dir, Point: r.point, Nth: r.nth})
	if err != nil {
		t.Fatal(err)
	}
	recs := runWorkload(victim.addr, r.rng, r.sessions, r.launches)
	if !victim.awaitExit(r.timeout) {
		t.Fatal("armed child did not die at its first commit")
	}
	closeClients(recs)
	select {
	case <-victim.done:
	default:
		t.Fatal("done still open after the child was reaped")
	}
	victim.kill()
	victim.kill()
}

// TestFlightLineNamesTheDevice: a record on device 0 names it, and a
// device-less record (-1) names none.
func TestFlightLineNamesTheDevice(t *testing.T) {
	for _, tc := range []struct {
		rec  obs.FlightRecord
		want string
	}{
		{obs.FlightRecord{Seq: 1, Kind: "bind", Ctx: 3, Device: 0}, "#1 0s bind ctx=3 dev=0"},
		{obs.FlightRecord{Seq: 2, Kind: "intra-swap", Device: 2}, "#2 0s intra-swap dev=2"},
		{obs.FlightRecord{Seq: 3, Kind: "exit", Ctx: 3, Device: -1}, "#3 0s exit ctx=3"},
	} {
		if got := strings.Join(strings.Fields(flightLine(tc.rec)), " "); got != tc.want {
			t.Errorf("flightLine(%+v) = %q, want %q", tc.rec, got, tc.want)
		}
	}
}
