package core

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/obs"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// TestRuntimeEmitsTraceEvents drives a representative flow and asserts
// the structured event stream reflects it: connect → bind →
// inter-swap → failure → recovery → exit.
func TestRuntimeEmitsTraceEvents(t *testing.T) {
	rec := trace.NewRecorder(256)
	env := newEnv(t, Config{VGPUsPerDevice: 2, Trace: rec},
		smallSpec(1<<20, 1), smallSpec(1<<20, 1))

	a, b := env.client(), env.client()
	for _, c := range []*struct {
		cl interface {
			RegisterFatBinary(api.FatBinary) error
		}
	}{{a}, {b}} {
		if err := c.cl.RegisterFatBinary(testBinary()); err != nil {
			t.Fatal(err)
		}
	}
	pa, _ := a.Malloc(600 << 10)
	pb, _ := b.Malloc(600 << 10)

	// a binds to a device and fills it.
	if err := a.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pa}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // a becomes idle (model hours at this scale)

	// b may land next to a (same device) and force an inter-app swap,
	// or on the second device; drive both onto device pressure by
	// failing b's device after it binds.
	if err := b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}

	// Fail device 0 and force a's recovery on its next call.
	env.rt.FailDevice(0)
	if err := a.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pa}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	env.wg.Wait()

	counts := rec.CountByKind()
	if counts[trace.KindConnect] != 2 {
		t.Errorf("connect events = %d, want 2", counts[trace.KindConnect])
	}
	if counts[trace.KindBind] < 2 {
		t.Errorf("bind events = %d, want >= 2", counts[trace.KindBind])
	}
	if counts[trace.KindFailure] != 1 {
		t.Errorf("failure events = %d, want 1", counts[trace.KindFailure])
	}
	if counts[trace.KindRecovery] < 1 {
		t.Errorf("recovery events = %d, want >= 1", counts[trace.KindRecovery])
	}
	if counts[trace.KindExit] != 2 {
		t.Errorf("exit events = %d, want 2", counts[trace.KindExit])
	}

	// The first event must be a connect, the last an exit, and model
	// times must be monotonically non-decreasing.
	evs := rec.Snapshot()
	if evs[0].Kind != trace.KindConnect {
		t.Errorf("first event = %v", evs[0])
	}
	if evs[len(evs)-1].Kind != trace.KindExit {
		t.Errorf("last event = %v", evs[len(evs)-1])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Errorf("event %d time %v before event %d time %v", i, evs[i].Time, i-1, evs[i-1].Time)
			break
		}
	}
	if rec.Dump() == "" {
		t.Error("Dump is empty")
	}
}

// flightRecords dumps f and returns the records it held.
func flightRecords(t *testing.T, f *obs.FlightRecorder) []obs.FlightRecord {
	t.Helper()
	path, err := f.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	d, err := obs.ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	return d.Records
}

// TestFlightOnlyNodeRecordsIntraSwaps: a node that arms only the flight
// recorder (gvrtd -flight without -http) records intra-application
// swaps like every other event.
func TestFlightOnlyNodeRecordsIntraSwaps(t *testing.T) {
	f := obs.NewFlightRecorder("n", t.TempDir(), 0)
	env := newEnv(t, Config{VGPUsPerDevice: 1, Flight: f}, smallSpec(1<<20, 1))
	intraSwapWalk(t, env)
	n := 0
	for _, r := range flightRecords(t, f) {
		if r.Kind == trace.KindIntraSwap.String() {
			n++
		}
	}
	if n == 0 {
		t.Errorf("no %s record in the flight dump (%d intra-app swaps)", trace.KindIntraSwap, env.rt.Metrics().IntraAppSwaps)
	}
}

// TestNotesReachEveryRecorder: transitions no other kind describes — a
// pinned context, an offload dial that fails, a drain — reach the trace
// and the flight recorder alike as notes.
func TestNotesReachEveryRecorder(t *testing.T) {
	rec := trace.NewRecorder(256)
	f := obs.NewFlightRecorder("n", t.TempDir(), 0)
	env := newEnv(t, Config{
		VGPUsPerDevice:   1,
		Trace:            rec,
		Flight:           f,
		OffloadThreshold: 1,
		PeerDial:         func() (transport.Conn, error) { return nil, errors.New("peer unreachable") },
	}, smallSpec(1<<20, 1))

	// dyn allocates from the device: its context is pinned.
	a, b := env.client(), env.client()
	defer a.Close()
	defer b.Close()
	if err := a.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	pa, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Launch(api.LaunchCall{Kernel: "dyn", PtrArgs: []api.DevPtr{pa}}); err != nil {
		t.Fatal(err)
	}
	// Two resident contexts put the next arrival over the offload
	// threshold; its dial fails and it is served locally.
	if _, err := b.Malloc(64); err != nil {
		t.Fatal(err)
	}
	pc, ps := transport.Pipe()
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		env.rt.HandleConn(ps)
	}()
	c := frontend.Connect(pc)
	if _, err := c.Malloc(16); err != nil {
		t.Fatal(err)
	}
	c.Close()
	env.rt.BeginDrain()

	want := []string{"pinned: kernel dyn", "offload dial failed", "drain: refusing new connections"}
	var traced, flown []string
	for _, e := range rec.Filter(trace.KindNote) {
		traced = append(traced, e.Detail)
	}
	for _, r := range flightRecords(t, f) {
		if r.Kind == trace.KindNote.String() {
			flown = append(flown, r.Detail)
		}
	}
	for _, w := range want {
		for name, got := range map[string][]string{"trace": traced, "flight": flown} {
			if !slices.ContainsFunc(got, func(d string) bool { return strings.HasPrefix(d, w) }) {
				t.Errorf("%s recorder lacks a %q note: %q", name, w, got)
			}
		}
	}
}

// TestEventsRecordedInTimeOrder: goroutines emit events at once, and the
// trace ring holds them in the order of their stamps, because the
// recorder reads the clock inside the hold that takes the slot. The
// flight recorder and OnEvent get the stamp the trace recorded.
func TestEventsRecordedInTimeOrder(t *testing.T) {
	const emitters, each = 4, 2000
	rec := trace.NewRecorder(emitters * each)
	f := obs.NewFlightRecorder("n", t.TempDir(), emitters*each)
	var mu sync.Mutex
	seen := make(map[[2]int64]time.Duration, emitters*each)
	env := newEnv(t, Config{Trace: rec, Flight: f, OnEvent: func(e trace.Event) {
		mu.Lock()
		seen[[2]int64{e.Ctx, e.Other}] = e.Time
		mu.Unlock()
	}}, smallSpec(1<<20, 1))
	var wg sync.WaitGroup
	for g := int64(1); g <= emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				env.rt.event(trace.KindNote, g, i, -1, strconv.FormatInt(i, 10))
			}
		}()
	}
	wg.Wait()
	evs := rec.Snapshot()
	if len(evs) != emitters*each {
		t.Fatalf("recorded %d events, want %d", len(evs), emitters*each)
	}
	stamps := make(map[[2]int64]time.Duration, len(evs))
	for i, e := range evs {
		if i > 0 && e.Time < evs[i-1].Time {
			t.Fatalf("event %d time %v before event %d time %v", i, e.Time, i-1, evs[i-1].Time)
		}
		stamps[[2]int64{e.Ctx, e.Other}] = e.Time
	}
	if !maps.Equal(seen, stamps) {
		t.Error("OnEvent saw other stamps than the trace recorded")
	}
	records := flightRecords(t, f)
	for _, r := range records {
		i, _ := strconv.ParseInt(r.Detail, 10, 64)
		if want := stamps[[2]int64{r.Ctx, i}]; r.Model != want {
			t.Fatalf("flight record of ctx %d event %d at %v, trace at %v", r.Ctx, i, r.Model, want)
		}
	}
	if len(records) != len(evs) {
		t.Errorf("flight recorded %d events, want %d", len(records), len(evs))
	}
}
