// Package trace records structured runtime events into a bounded ring
// buffer, giving operators and tests visibility into the scheduling
// decisions the paper's runtime makes invisibly: bindings, swaps,
// migrations, failures, recoveries and offloads.
//
// A Recorder is cheap enough to stay enabled in production: recording
// is one mutex acquisition and one slot write, with no allocation
// beyond the ring itself. Plug one into core.Config.Trace.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	// KindConnect is a new application-thread connection.
	KindConnect Kind = iota
	// KindBind is an application→vGPU binding.
	KindBind
	// KindUnbind is a voluntary vGPU release (exit or retry).
	KindUnbind
	// KindIntraSwap is an intra-application swap-out of one entry.
	KindIntraSwap
	// KindInterSwap is an inter-application swap (victim vacates).
	KindInterSwap
	// KindMigration is a dynamic re-binding to a faster device.
	KindMigration
	// KindCheckpoint is an explicit or automatic checkpoint.
	KindCheckpoint
	// KindFailure is a device failure.
	KindFailure
	// KindRecovery is a context recovery (rebind + replay).
	KindRecovery
	// KindOffload is a connection redirected to a peer node.
	KindOffload
	// KindShed is a connection refused while draining.
	KindShed
	// KindExit is an application-thread exit.
	KindExit
	// KindFence is a mutating call rejected because the session's lease
	// epoch moved (deposed owner).
	KindFence
	// KindCrossMigration is a cross-node context migration event
	// (export shipped, import committed, or failover promotion) —
	// distinct from KindMigration, the intra-node device re-binding.
	KindCrossMigration
	// KindCtrlOp is a control-plane pending-operation transition
	// (started, completed, resumed, rolled back, stuck); Detail carries
	// the operation kind and outcome.
	KindCtrlOp
	// KindNote is a runtime transition no other kind describes (a drain,
	// a refused import, a failed journal write); Detail carries the
	// whole message.
	KindNote
)

var kindNames = [...]string{
	KindConnect:        "connect",
	KindBind:           "bind",
	KindUnbind:         "unbind",
	KindIntraSwap:      "intra-swap",
	KindInterSwap:      "inter-swap",
	KindMigration:      "migration",
	KindCheckpoint:     "checkpoint",
	KindFailure:        "failure",
	KindRecovery:       "recovery",
	KindOffload:        "offload",
	KindShed:           "shed",
	KindExit:           "exit",
	KindFence:          "fence",
	KindCrossMigration: "cross-migration",
	KindCtrlOp:         "ctrl-op",
	KindNote:           "note",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded runtime event.
type Event struct {
	// Time is the model time of the event.
	Time time.Duration
	// Kind classifies the event.
	Kind Kind
	// Ctx is the acting context's ID (0 when not applicable).
	Ctx int64
	// Other is the other party's context ID (swap victim, migration
	// subject), 0 when not applicable.
	Other int64
	// Device is the device ordinal involved, -1 when not applicable.
	Device int
	// Detail is a short human-readable annotation.
	Detail string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.3fs %-10s", e.Time.Seconds(), e.Kind)
	if e.Ctx != 0 {
		fmt.Fprintf(&b, " ctx=%d", e.Ctx)
	}
	if e.Other != 0 {
		fmt.Fprintf(&b, " other=%d", e.Other)
	}
	if e.Device >= 0 {
		fmt.Fprintf(&b, " dev=%d", e.Device)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// Recorder keeps the most recent events and spans in two bounded
// rings, safe for concurrent use.
type Recorder struct {
	events *Ring[Event]
	// spans has its own lock so heavy span traffic does not contend
	// with event recording.
	spans *Ring[Span]
}

// NewRecorder creates a recorder keeping the most recent capacity
// events (minimum 16) and as many spans (minimum 256).
func NewRecorder(capacity int) *Recorder {
	capacity = max(capacity, 16)
	return &Recorder{events: NewRing[Event](capacity), spans: NewRing[Span](max(capacity, 256))}
}

// Record appends e stamped with now, evicting the oldest event when
// full, and returns the stamped event. The clock is read inside the
// hold that takes the slot, so the ring is in time order however
// concurrent emitters interleave.
func (r *Recorder) Record(e Event, now func() time.Duration) Event {
	ring := r.events
	ring.mu.Lock()
	e.Time = now()
	ring.put(e)
	ring.mu.Unlock()
	return e
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int { return r.events.Len() }

// Total reports how many events were ever recorded (including evicted).
func (r *Recorder) Total() uint64 { return r.events.Total() }

// Snapshot returns the retained events in recording order.
func (r *Recorder) Snapshot() []Event {
	out, _ := r.events.Snapshot()
	return out
}

// Filter returns the retained events of the given kinds, in order.
func (r *Recorder) Filter(kinds ...Kind) []Event {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range r.Snapshot() {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// CountByKind tallies retained events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Snapshot() {
		out[e.Kind]++
	}
	return out
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Snapshot() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
