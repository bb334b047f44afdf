// Package faultinject is the runtime's deterministic fault plane: a
// single place where every layer — transport, devices, memory manager,
// dispatcher, cluster links — asks "does a fault fire here, now?".
//
// A Plan names a set of Rules. Each rule targets one injection Point
// (optionally one labeled instance of it, e.g. a single GPU) and fires
// either probabilistically or at a fixed occurrence count. Every hook
// instance draws from its own sim.RNG stream, forked from the plan seed
// by the hook's (point, label) identity, so a decision is a pure
// function of (seed, point, label, occurrence-number): re-running a
// plan with the same seed reproduces the same fault schedule no matter
// how goroutines interleave elsewhere. That is what makes a failing
// chaos run replayable from its seed alone.
//
// Instrumented code holds a *Hook per site and calls Check() on it; a
// nil hook (no plan installed, or no rule matching the site) is a
// single nil check on the hot path. The paper's §4.6–§4.7 claims —
// binding survives device failure, checkpoint-restart limits replay,
// offloading degrades cleanly under partition — are exercised by
// driving these hooks rather than by bespoke saboteur goroutines.
package faultinject

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
	"gvrt/internal/trace"
)

// Point names a class of injection sites. The constants below are the
// sites currently instrumented; rules referencing other points are
// accepted (their hooks are simply never created).
type Point string

// Instrumented injection points.
const (
	// PointClusterLink fires on each use of a node's outbound peer
	// link: the dial and every proxied call. Label is the source node's
	// name. ActPartition severs the link permanently.
	PointClusterLink Point = "cluster.link"
	// PointDeviceExec fires on each kernel execution on a device.
	// Label is "gpu<N>". ActFailDevice is a sticky device failure.
	PointDeviceExec Point = "gpu.exec"
	// PointDeviceDMA fires on each DMA transfer, once per item of a
	// CopyInBatch/CopyOutBatch submission.
	// ActDelay models a slow transfer, ActCorrupt an ECC-style
	// corruption of the payload.
	PointDeviceDMA Point = "gpu.dma"
	// PointDeviceMalloc fires on each device allocation (denial).
	PointDeviceMalloc Point = "gpu.malloc"
	// PointSwapWrite fires on each write into the host swap area
	// (host→swap copies, memsets and device→swap spills).
	PointSwapWrite Point = "memmgr.swapwrite"
	// PointSwapAlloc fires on each page-table allocation (denial).
	PointSwapAlloc Point = "memmgr.malloc"
	// PointDispatch fires on each call entering the dispatcher;
	// ActDelay models a scheduler stall.
	PointDispatch Point = "core.dispatch"
	// PointJournalPreSync fires in the checkpoint journal after record
	// bytes reached the OS but before fsync: a crash here may leave a
	// torn tail that recovery must truncate.
	PointJournalPreSync Point = "ckptlog.presync"
	// PointJournalPostSync fires right after the journal's fsync
	// returned: a crash here loses nothing that was acknowledged.
	PointJournalPostSync Point = "ckptlog.postsync"
	// PointJournalCompact fires inside snapshot compaction, once after
	// the temporary snapshot is written and synced (before the atomic
	// rename) and once after the rename (before the journal truncates).
	PointJournalCompact Point = "ckptlog.compact"
	// PointLeaseCheck fires on each lease fence check of a mutating
	// call. ActError models the lease-expiry race: the session's lease
	// is revoked as if a peer stole it the instant before the check, so
	// the owner's in-flight write is rejected with ErrFenced.
	PointLeaseCheck Point = "failover.lease"
	// PointMigrateTransfer fires on the migration source for each wire
	// frame sent to the target. ActError aborts the transfer mid-stream,
	// ActCrash kills the source with a partially-shipped image on the
	// target.
	PointMigrateTransfer Point = "failover.transfer"
	// PointMigrateImport fires on the migration target for each wire
	// frame received. ActCrash kills the target mid-import, leaving a
	// pending-operation record that recovery must resolve.
	PointMigrateImport Point = "failover.import"
	// PointStorePreSync fires in the control-plane store after a commit
	// frame's bytes reached the OS but before fsync: a crash here may
	// leave a torn tail that recovery must truncate.
	PointStorePreSync Point = "ctrlstore.presync"
	// PointStorePostSync fires right after the store's fsync returned:
	// a crash here loses no committed transaction.
	PointStorePostSync Point = "ctrlstore.postsync"
	// PointStoreCompact fires inside store snapshot compaction, once
	// after the temporary snapshot is written and synced (before the
	// atomic rename) and once after the rename (before the WAL
	// truncates) — the same two boundaries as PointJournalCompact.
	PointStoreCompact Point = "ctrlstore.compact"
	// PointCtrlOpStep fires before every journaled step of a
	// control-plane pending operation (begin, each advance, the final
	// commit). ActCrash kills the daemon between steps, leaving a
	// pending-op record that restart must resume or roll back.
	PointCtrlOpStep Point = "ctrlplane.opstep"
)

// Action is what a fired rule does to the operation.
type Action int

// Actions.
const (
	// ActError fails the operation with Rule.Err (or the point's
	// default error code).
	ActError Action = iota
	// ActDelay stalls the operation by Rule.Delay of model time.
	ActDelay
	// ActCorrupt corrupts the operation's payload (DMA transfers).
	ActCorrupt
	// ActDrop tears down the connection (transport calls).
	ActDrop
	// ActFailDevice fails the device stickily: the operation and every
	// later one on that device return ErrDeviceUnavailable, exactly as
	// if the hardware died (§4.6's failure model).
	ActFailDevice
	// ActPartition severs a cluster peer link stickily: the current and
	// all later uses of the link fail until the hook is healed.
	ActPartition
	// ActCrash asks the site to die on the spot — the checkpoint
	// journal's crash points translate it into a SIGKILL of the whole
	// process (or a configured stand-in), modeling a power loss exactly
	// at that boundary.
	ActCrash
)

var actionNames = [...]string{
	ActError:      "error",
	ActDelay:      "delay",
	ActCorrupt:    "corrupt",
	ActDrop:       "drop",
	ActFailDevice: "fail-device",
	ActPartition:  "partition",
	ActCrash:      "crash",
}

// String implements fmt.Stringer.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Rule arms one fault at one point. Exactly one trigger should be set:
// Prob for probabilistic faults, AtNth for "the Nth occurrence",
// EveryNth for periodic ones; setting several ORs them.
type Rule struct {
	// Point is the targeted injection point.
	Point Point
	// Label, when non-empty, restricts the rule to the hook instance
	// with that label (e.g. "gpu1"); empty matches every instance.
	Label string
	// Prob is the per-occurrence firing probability in [0,1], drawn
	// from the hook's private stream.
	Prob float64
	// AtNth fires on exactly the Nth occurrence (1-based).
	AtNth uint64
	// EveryNth fires on every Nth occurrence.
	EveryNth uint64
	// After suppresses the rule for the first After occurrences.
	After uint64
	// MaxFires bounds how many times the rule fires (0 = unlimited).
	MaxFires uint64
	// Action selects the fault.
	Action Action
	// Delay is the stall duration for ActDelay.
	Delay time.Duration
	// Err overrides the point's default error code for ActError.
	Err api.Error
}

// Plan is a named, seeded fault schedule.
type Plan struct {
	// Name identifies the plan in logs and post-mortems.
	Name string
	// Seed seeds every hook's private RNG stream; a run is replayable
	// from (plan, seed) alone.
	Seed int64
	// Rules are evaluated per occurrence in order; the first rule that
	// fires decides the action (later probability draws still happen,
	// keeping every rule's stream occurrence-indexed).
	Rules []Rule
}

// Decision is a hook's verdict for one occurrence. The zero value means
// "proceed normally". Sites honour the subset of fields that make sense
// for them and ignore the rest.
type Decision struct {
	// Err, when non-nil, is the error the operation must return.
	Err error
	// Delay is extra model time to stall before proceeding.
	Delay time.Duration
	// Corrupt asks a DMA site to corrupt the payload.
	Corrupt bool
	// FailDevice asks a device site to fail the device stickily.
	FailDevice bool
	// Drop asks a transport site to tear the connection down.
	Drop bool
	// Crash asks the site to kill the process immediately (the journal's
	// armed crash points).
	Crash bool
}

// Fired is one entry of the fault schedule: rule r of the plan fired at
// the hook's Occurrence-th visit.
type Fired struct {
	Point      Point
	Label      string
	Occurrence uint64
	Action     Action
}

// String implements fmt.Stringer.
func (f Fired) String() string {
	if f.Label != "" {
		return fmt.Sprintf("%s[%s] occurrence %d: %s", f.Point, f.Label, f.Occurrence, f.Action)
	}
	return fmt.Sprintf("%s occurrence %d: %s", f.Point, f.Occurrence, f.Action)
}

// Plane is an armed Plan: the object the runtime layers consult.
// A Plane is safe for concurrent use; each hook serialises its own
// occurrences so its decision stream stays occurrence-indexed.
type Plane struct {
	plan Plan
	root *sim.RNG

	mu    sync.Mutex
	hooks map[string]*Hook
	fired []Fired
	// tracer mirrors fired faults into a trace recorder as zero-length
	// "fault:<point>" spans, so an exported timeline visually aligns
	// faults with the recoveries they triggered. Nil records nothing.
	tracer *trace.Tracer
}

// New arms a plan.
func New(plan Plan) *Plane {
	return &Plane{
		plan:  plan,
		root:  sim.NewRNG(plan.Seed),
		hooks: make(map[string]*Hook),
	}
}

// Seed returns the plan seed — print it with any failure so the run can
// be reproduced.
func (p *Plane) Seed() int64 { return p.plan.Seed }

// Hook returns the hook instance for (point, label), creating it on
// first use, or nil when no rule of the plan can ever match the site —
// so un-faulted sites keep a nil field and the hot path pays exactly
// one nil check. A nil *Plane returns nil for every site.
func (p *Plane) Hook(point Point, label string) *Hook {
	if p == nil {
		return nil
	}
	key := string(point) + "/" + label
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.hooks[key]; ok {
		return h
	}
	var rules []activeRule
	for _, r := range p.plan.Rules {
		if r.Point == point && (r.Label == "" || r.Label == label) {
			rules = append(rules, activeRule{Rule: r})
		}
	}
	if len(rules) == 0 {
		return nil
	}
	h := &Hook{
		plane: p,
		point: point,
		label: label,
		rng:   p.root.Fork(key),
		rules: rules,
	}
	p.hooks[key] = h
	return h
}

// SetTrace mirrors every fired fault into rec as an instant span
// stamped with now()'s model time. Call it before serving; a nil
// recorder disables mirroring. A nil *Plane is a no-op.
func (p *Plane) SetTrace(rec *trace.Recorder, now func() time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if rec == nil {
		p.tracer = nil
	} else {
		p.tracer = &trace.Tracer{Rec: rec, Now: now}
	}
	p.mu.Unlock()
}

// record appends a fired fault to the schedule.
func (p *Plane) record(f Fired) {
	p.mu.Lock()
	p.fired = append(p.fired, f)
	t := p.tracer
	p.mu.Unlock()
	if t != nil {
		t.Span("fault:"+string(f.Point), 0, t.Start(), -1, f.String())
	}
}

// Schedule returns every fault fired so far. Entries from one hook
// appear in occurrence order; entries from different hooks interleave
// in wall order.
func (p *Plane) Schedule() []Fired {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Fired(nil), p.fired...)
}

// Occurrences reports how many times each live hook has been consulted,
// keyed "point/label". Together with Schedule it captures everything a
// replay needs: feeding a fresh plane the same per-hook occurrence
// counts reproduces the same schedule.
func (p *Plane) Occurrences() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]uint64, len(p.hooks))
	for key, h := range p.hooks {
		out[key] = h.occurrences()
	}
	return out
}

// Replay checks the determinism invariant behind seed replay: whether
// the n-th occurrence at a hook fires is a pure function of (seed,
// point, label, n). It arms a fresh plane from the same plan, drives
// each hook for exactly the occurrences this plane observed, and
// requires the identical faults at the identical occurrences — none
// missing, none extra. The counts themselves are runtime dynamics (once
// a device fails and its load redistributes, another device's tally can
// differ between runs of one seed), but the decision table never
// differs, which is what makes a failure reproducible from its seed.
func (p *Plane) Replay() error {
	replay := New(p.plan)
	for key, n := range p.Occurrences() {
		point, label, _ := strings.Cut(key, "/")
		h := replay.Hook(Point(point), label)
		for i := uint64(0); i < n; i++ {
			h.Check()
		}
	}
	live, again := p.sortedSchedule(), replay.sortedSchedule()
	for i := range max(len(live), len(again)) {
		if i == len(live) || i == len(again) || live[i] != again[i] {
			return fmt.Errorf("schedule replay diverged from fault %d on: live run fired %v, replay fired %v",
				i, live[i:], again[i:])
		}
	}
	return nil
}

// sortedSchedule is Schedule ordered by hook, then occurrence: the
// interleaving-free form two schedules are compared in.
func (p *Plane) sortedSchedule() []Fired {
	s := p.Schedule()
	slices.SortFunc(s, func(a, b Fired) int {
		return cmp.Or(cmp.Compare(a.Point, b.Point), cmp.Compare(a.Label, b.Label),
			cmp.Compare(a.Occurrence, b.Occurrence))
	})
	return s
}

// String renders a post-mortem summary: the plan identity and the fired
// schedule, one fault per line.
func (p *Plane) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan %q seed %d:\n", p.plan.Name, p.plan.Seed)
	sched := p.Schedule()
	if len(sched) == 0 {
		b.WriteString("  (no faults fired)\n")
	}
	for _, f := range sched {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// activeRule is a rule plus its per-hook firing count.
type activeRule struct {
	Rule
	fires uint64
}

// Hook is one armed injection site. The zero of its pointer type (nil)
// is a valid, inert hook: Check on a nil *Hook returns the zero
// Decision, which is the whole cost of an uninstrumented run.
type Hook struct {
	plane *Plane
	point Point
	label string

	mu    sync.Mutex
	rng   *sim.RNG
	n     uint64
	rules []activeRule
	down  bool // sticky: an ActPartition fired
}

// Check records one occurrence and returns the plan's decision for it.
// Safe for concurrent use; a nil hook always proceeds.
func (h *Hook) Check() Decision {
	if h == nil {
		return Decision{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	var d Decision
	fired := false
	var act Action
	for i := range h.rules {
		r := &h.rules[i]
		hit := false
		// The probability draw happens on every occurrence — even when
		// an earlier rule already fired — so each rule's stream position
		// equals the occurrence number and decisions stay replayable.
		if r.Prob > 0 && h.rng.Float64() < r.Prob {
			hit = true
		}
		if r.AtNth > 0 && h.n == r.AtNth {
			hit = true
		}
		if r.EveryNth > 0 && h.n%r.EveryNth == 0 {
			hit = true
		}
		if h.n <= r.After {
			hit = false
		}
		if r.MaxFires > 0 && r.fires >= r.MaxFires {
			hit = false
		}
		if !hit || fired {
			continue
		}
		r.fires++
		fired = true
		act = r.Action
		switch r.Action {
		case ActError:
			d.Err = errorFor(r.Err, h.point)
		case ActDelay:
			d.Delay = r.Delay
		case ActCorrupt:
			d.Corrupt = true
		case ActDrop:
			d.Drop = true
		case ActFailDevice:
			d.FailDevice = true
			d.Err = api.ErrDeviceUnavailable
		case ActPartition:
			d.Drop = true
			h.down = true
		case ActCrash:
			d.Crash = true
		}
	}
	if h.down && !fired {
		// A severed link stays severed; only the firing itself is a
		// schedule entry.
		d.Drop = true
	}
	if fired {
		h.plane.record(Fired{Point: h.point, Label: h.label, Occurrence: h.n, Action: act})
	}
	return d
}

// Down reports whether a sticky partition has severed this site. A nil
// hook is never down.
func (h *Hook) Down() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

// Heal clears a sticky partition (the link comes back).
func (h *Hook) Heal() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.down = false
	h.mu.Unlock()
}

func (h *Hook) occurrences() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// errorFor resolves a rule's error override against the point's default
// failure code: the error the equivalent real-world fault would surface.
func errorFor(override api.Error, point Point) error {
	if override != 0 {
		return override
	}
	switch point {
	case PointClusterLink:
		return api.ErrConnectionClosed
	case PointDeviceExec, PointDeviceDMA:
		return api.ErrDeviceUnavailable
	case PointDeviceMalloc:
		return api.ErrMemoryAllocation
	case PointSwapWrite, PointSwapAlloc:
		return api.ErrSwapAllocation
	case PointLeaseCheck:
		return api.ErrFenced
	case PointMigrateTransfer:
		return api.ErrConnectionClosed
	default:
		return api.ErrInvalidValue
	}
}
