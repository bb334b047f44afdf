package trace

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// at is a clock stopped at d.
func at(d time.Duration) func() time.Duration { return func() time.Duration { return d } }

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(64)
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	r.Record(Event{Kind: KindBind, Ctx: 1, Device: 0}, at(time.Second))
	r.Record(Event{Kind: KindInterSwap, Ctx: 2, Other: 1, Device: 0}, at(2*time.Second))
	if r.Len() != 2 || r.Total() != 2 {
		t.Errorf("Len=%d Total=%d, want 2/2", r.Len(), r.Total())
	}
	evs := r.Snapshot()
	if evs[0].Kind != KindBind || evs[1].Kind != KindInterSwap {
		t.Errorf("order wrong: %v", evs)
	}
	if evs[1].Other != 1 {
		t.Errorf("Other = %d", evs[1].Other)
	}
	if evs[0].Time != time.Second || evs[1].Time != 2*time.Second {
		t.Errorf("stamps %v, %v; want 1s, 2s", evs[0].Time, evs[1].Time)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Record(Event{Ctx: int64(i), Kind: KindBind}, at(0))
	}
	if r.Len() != 16 {
		t.Errorf("Len = %d, want 16", r.Len())
	}
	if r.Total() != 40 {
		t.Errorf("Total = %d, want 40", r.Total())
	}
	evs := r.Snapshot()
	if evs[0].Ctx != 24 || evs[15].Ctx != 39 {
		t.Errorf("retained window = [%d..%d], want [24..39]", evs[0].Ctx, evs[15].Ctx)
	}
}

func TestRecorderMinimumCapacity(t *testing.T) {
	r := NewRecorder(1)
	for i := 0; i < 20; i++ {
		r.Record(Event{Ctx: int64(i)}, at(0))
	}
	if r.Len() != 16 {
		t.Errorf("minimum capacity not applied: Len = %d", r.Len())
	}
}

func TestFilterAndCount(t *testing.T) {
	r := NewRecorder(64)
	r.Record(Event{Kind: KindBind}, at(0))
	r.Record(Event{Kind: KindInterSwap}, at(0))
	r.Record(Event{Kind: KindBind}, at(0))
	r.Record(Event{Kind: KindMigration}, at(0))
	if got := r.Filter(KindBind); len(got) != 2 {
		t.Errorf("Filter(bind) = %d events, want 2", len(got))
	}
	if got := r.Filter(KindBind, KindMigration); len(got) != 3 {
		t.Errorf("Filter(bind,migration) = %d events, want 3", len(got))
	}
	counts := r.CountByKind()
	if counts[KindBind] != 2 || counts[KindInterSwap] != 1 || counts[KindMigration] != 1 {
		t.Errorf("CountByKind = %v", counts)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 1500 * time.Millisecond, Kind: KindMigration, Ctx: 7, Device: 2, Detail: "vGPU1.0 -> vGPU0.0"}
	s := e.String()
	for _, want := range []string{"migration", "ctx=7", "dev=2", "vGPU1.0 -> vGPU0.0", "1.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
	// Unknown kinds don't panic.
	if Kind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: KindConnect, Ctx: 1}, at(0))
	r.Record(Event{Kind: KindExit, Ctx: 1}, at(0))
	d := r.Dump()
	if strings.Count(d, "\n") != 2 {
		t.Errorf("Dump = %q", d)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Ctx: int64(g), Kind: KindBind}, at(0))
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("Total = %d, want 800", r.Total())
	}
}

// TestRecorderRingProperty property-checks that the snapshot is always
// the last min(total, capacity) events in order.
func TestRecorderRingProperty(t *testing.T) {
	check := func(nRecords uint8, capSeed uint8) bool {
		capacity := int(capSeed)%64 + 16
		r := NewRecorder(capacity)
		n := int(nRecords)
		for i := 0; i < n; i++ {
			r.Record(Event{Ctx: int64(i)}, at(0))
		}
		evs := r.Snapshot()
		want := n
		if want > capacity {
			want = capacity
		}
		if len(evs) != want {
			return false
		}
		for i, e := range evs {
			if e.Ctx != int64(n-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
