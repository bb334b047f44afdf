package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/trace"
	"gvrt/internal/wal"
)

// FlightRecord is one entry in the black-box ring: a state transition,
// breaker/fence/lease event, span, or crash-point arm the node saw
// recently.
type FlightRecord struct {
	Seq    uint64        `json:"seq"`
	Wall   time.Time     `json:"wall"`
	Model  time.Duration `json:"model_ns"`
	Kind   string        `json:"kind"`
	Ctx    int64         `json:"ctx,omitempty"`
	Device int           `json:"device,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// FlightDump is the on-disk post-mortem artifact: the ring contents at
// dump time plus the histogram deltas since the previous dump and a
// final stats snapshot. gvrt-chaos folds it into its failover
// verdicts; operators read it with `gvrt-chaos -flight-read <path>`.
type FlightDump struct {
	Schema string    `json:"schema"` // "gvrt-flight/v1"
	Node   string    `json:"node"`
	Reason string    `json:"reason"`
	Wall   time.Time `json:"wall"`
	// Seq is the recorder's sequence counter at dump time; records
	// carry their own Seq so dropped (overwritten) history is visible.
	Seq     uint64                        `json:"seq"`
	Records []FlightRecord                `json:"records"`
	Hists   map[string]trace.HistSnapshot `json:"hist_deltas,omitempty"`
	Stats   *api.RuntimeStats             `json:"stats,omitempty"`
}

// FlightSchema identifies a parseable dump.
const FlightSchema = "gvrt-flight/v1"

// FlightRecorder is a bounded per-node black box. Note appends to a
// trace.Ring — it is fed state transitions (binds, swaps, fence
// rejections, breaker trips, crash points), never one record per
// call. Dump writes the ring atomically (temp file + rename) and dumps
// run one at a time, so a dump racing a SIGKILL or another dump is
// either complete or absent, never torn.
//
// Dumps trigger on: armed faultinject crash points (WrapCrash), fence
// or breaker storms (>= stormThreshold events inside stormWindow), an
// explicit Dump call (panic handlers), and — so an external SIGKILL
// still leaves evidence — a periodic background flush (Run).
type FlightRecorder struct {
	node string
	path string
	recs *trace.Ring[FlightRecord]

	// mu guards the sources and the storm detector.
	mu    sync.Mutex
	hists func() map[string]trace.HistSnapshot
	stats func() api.RuntimeStats

	stormWindow    time.Duration
	stormThreshold int
	stormTimes     []time.Time
	stormFired     time.Time

	// dumpMu is held by a dump from its snapshot through the rename:
	// concurrent dumps share the temp file, and each takes its
	// histogram delta against lastHist, the previous dump's snapshot.
	dumpMu   sync.Mutex
	lastHist map[string]trace.HistSnapshot

	dumps atomic.Int64
}

// NewFlightRecorder creates a recorder for node writing dumps to
// dir/flight-<node>.json. capacity <= 0 defaults to 512 records.
func NewFlightRecorder(node, dir string, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 512
	}
	return &FlightRecorder{
		node:           node,
		path:           filepath.Join(dir, "flight-"+node+".json"),
		recs:           trace.NewRing[FlightRecord](capacity),
		stormWindow:    2 * time.Second,
		stormThreshold: 8,
	}
}

// SetSources attaches optional context providers: a histogram snapshot
// source (for last-delta capture) and a stats snapshot source. Either
// may be nil.
func (f *FlightRecorder) SetSources(hists func() map[string]trace.HistSnapshot, stats func() api.RuntimeStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hists = hists
	f.stats = stats
}

// Path returns the dump destination.
func (f *FlightRecorder) Path() string { return f.path }

// Dumps returns how many dumps have been written.
func (f *FlightRecorder) Dumps() int64 { return f.dumps.Load() }

// Note appends a record of an event the emitter stamped at model time
// model to the ring. kind "fence" and "breaker-trip" contribute to
// storm detection: a threshold crossing inside the storm window
// triggers an asynchronous dump (at most once per window).
func (f *FlightRecorder) Note(model time.Duration, kind string, ctx int64, device int, detail string) {
	if f == nil {
		return
	}
	now := time.Now()
	rec := FlightRecord{Wall: now, Model: model, Kind: kind, Ctx: ctx, Device: device, Detail: detail}
	f.mu.Lock()
	f.recs.Put(rec)
	storm := false
	if kind == "fence" || kind == "breaker-trip" {
		cut := now.Add(-f.stormWindow)
		times := f.stormTimes[:0]
		for _, t := range f.stormTimes {
			if t.After(cut) {
				times = append(times, t)
			}
		}
		f.stormTimes = append(times, now)
		if len(f.stormTimes) >= f.stormThreshold && now.Sub(f.stormFired) > f.stormWindow {
			f.stormFired = now
			storm = true
		}
	}
	f.mu.Unlock()
	if storm {
		go f.Dump(kind + "-storm")
	}
}

// Dump writes the black box to disk atomically and returns the path.
// Histogram deltas are relative to the previous dump, so consecutive
// dumps describe disjoint intervals.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	f.mu.Lock()
	hists, stats := f.hists, f.stats
	f.mu.Unlock()
	d := FlightDump{Schema: FlightSchema, Node: f.node, Reason: reason, Wall: time.Now()}
	d.Records, d.Seq = f.recs.Snapshot()
	for i := range d.Records {
		d.Records[i].Seq = d.Seq - uint64(len(d.Records)-1-i)
	}
	if hists != nil {
		cur := hists()
		d.Hists = make(map[string]trace.HistSnapshot, len(cur))
		for k, s := range cur {
			d.Hists[k] = s.Delta(f.lastHist[k])
		}
		f.lastHist = cur
	}
	if stats != nil {
		s := stats()
		d.Stats = &s
	}

	buf, err := json.MarshalIndent(&d, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
		return "", err
	}
	err = wal.WriteFileAtomic(f.path, func(w io.Writer) error { _, err := w.Write(buf); return err })
	if err != nil {
		return "", err
	}
	f.dumps.Add(1)
	return f.path, nil
}

// WrapCrash chains the recorder in front of a faultinject OnCrash
// action: the black box hits the disk before the process kills itself,
// so an armed crash point always leaves a post-mortem.
func (f *FlightRecorder) WrapCrash(next func()) func() {
	return func() {
		if f != nil {
			f.Dump("crash-point")
		}
		if next != nil {
			next()
		}
	}
}

// Run flushes the box to disk every interval until stop closes — the
// belt-and-braces trigger that makes even an external SIGKILL (no
// in-process warning at all) leave a recent dump behind.
func (f *FlightRecorder) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			f.Dump("shutdown")
			return
		case <-t.C:
			f.Dump("periodic")
		}
	}
}

// ReadFlightDump parses a dump file, validating the schema.
func ReadFlightDump(path string) (*FlightDump, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d FlightDump
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("flight dump %s: %w", path, err)
	}
	if d.Schema != FlightSchema {
		return nil, fmt.Errorf("flight dump %s: schema %q, want %q", path, d.Schema, FlightSchema)
	}
	return &d, nil
}
