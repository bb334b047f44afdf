package trace

import (
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets. Bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 holds
// v <= 0. 64 buckets cover the full int64 range, so nanosecond
// latencies from 1ns to ~292 years land without configuration.
const histBuckets = 64

// Histogram is a fixed-shape log2-bucketed histogram. Observe is
// lock-free: two atomic adds, bucket and sum; the count is the buckets'
// sum, so a snapshot's Count is the sum of its Buckets. A snapshot's Sum
// may be off by in-flight observations — acceptable for exposition. The
// shape is identical across all histograms, which makes snapshots
// mergeable bucket-by-bucket. The zero value is ready to use.
//
// Observe writes lane 0's words; ObserveLane a runtime lane's (Counter).
// Lanes ≥1 live in one block, allocated on first use, whose pointer sits
// off the lines of lane 0's hot buckets and sum.
type Histogram struct {
	lanes atomic.Pointer[histLanes]
	histLane
}

// histLane is one lane's words. The padding keeps whatever follows it —
// the next lane, or the next histogram's lanes pointer — off the line of
// its sum.
type histLane struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	_       [56]byte
}

// histLanes is the block of lanes ≥1; the padding gives its header a
// line of its own.
type histLanes struct {
	l []histLane
	_ [40]byte
}

// MaxLanes bounds L, the lane count (LaneCount) a runtime is built with.
const MaxLanes = 4

// LaneCount returns min(GOMAXPROCS, MaxLanes).
func LaneCount() int { return min(runtime.GOMAXPROCS(0), MaxLanes) }

// Counter is a lane counter: one int64 per lane, each on a cache line of
// its own; Load sums the lanes, so the total is exact. See NewCounter.
type Counter struct{ lanes []laneWord }

type laneWord struct {
	n atomic.Int64
	_ [56]byte
}

// NewCounter returns a counter of LaneCount lanes.
func NewCounter() Counter { return Counter{make([]laneWord, LaneCount())} }

// Add adds n on lane, or on lane 0 if the counter lacks it.
func (c *Counter) Add(lane int, n int64) {
	if lane >= len(c.lanes) {
		lane = 0
	}
	c.lanes[lane].n.Add(n)
}

// Load returns the total over all lanes.
func (c *Counter) Load() (n int64) {
	for i := range c.lanes {
		n += c.lanes[i].n.Load()
	}
	return n
}

// bucketOf returns the bucket index for a value.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the exclusive upper bound of bucket i (2^i),
// shared by every Histogram. Bucket histBuckets-1 is unbounded in
// practice; callers render it as +Inf.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return int64(1) << 62 // sentinel; exposition renders +Inf
	}
	return int64(1) << uint(i)
}

// Observe records one value (typically nanoseconds or bytes) on lane 0.
func (h *Histogram) Observe(v int64) { h.histLane.observe(v) }

func (l *histLane) observe(v int64) {
	l.buckets[bucketOf(v)].Add(1)
	l.sum.Add(v)
}

// ObserveLane records one value on lane, or on lane 0 past the block's.
func (h *Histogram) ObserveLane(lane int, v int64) {
	l := &h.histLane
	if lane > 0 {
		if h.lanes.Load() == nil {
			h.lanes.CompareAndSwap(nil, &histLanes{l: make([]histLane, max(LaneCount(), lane+1)-1)})
		}
		if b := h.lanes.Load(); lane <= len(b.l) {
			l = &b.l[lane-1]
		}
	}
	l.observe(v)
}

// HistSnapshot is a point-in-time copy of a Histogram, shaped for the
// wire: Buckets[i] is the count of observations in log2 bucket i,
// with trailing zero buckets trimmed to keep StatsCall replies small.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram, its lanes summed.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	var raw [histBuckets]int64
	add := func(l *histLane) {
		s.Sum += l.sum.Load()
		for i := range raw {
			raw[i] += l.buckets[i].Load()
		}
	}
	add(&h.histLane)
	if b := h.lanes.Load(); b != nil {
		for i := range b.l {
			add(&b.l[i])
		}
	}
	last := -1
	for i, n := range raw {
		s.Count += n
		if n != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append(s.Buckets, raw[:last+1]...)
	}
	return s
}

// Merge adds other's observations into s (same fixed bucket shape).
func (s HistSnapshot) Merge(other HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + other.Count, Sum: s.Sum + other.Sum}
	n := len(s.Buckets)
	if len(other.Buckets) > n {
		n = len(other.Buckets)
	}
	if n > 0 {
		out.Buckets = make([]int64, n)
		copy(out.Buckets, s.Buckets)
		for i, v := range other.Buckets {
			out.Buckets[i] += v
		}
	}
	return out
}

// Delta returns the observations recorded since prev, assuming s is a
// later snapshot of the same histogram. Used by gvrt-top to compute
// interval quantiles from cumulative snapshots.
//
// Counters are cumulative, so a later snapshot of the same histogram
// can never be smaller than an earlier one — unless the process
// restarted in between and the counters reset. When any count would go
// negative (non-monotonic input), Delta treats s as a fresh counter
// and returns it whole: everything the restarted process observed is
// new since prev. Sum is deliberately not used for reset detection —
// it can legitimately decrease for histograms observing negative
// values.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	reset := out.Count < 0 || len(prev.Buckets) > len(s.Buckets) && anyPositive(prev.Buckets[len(s.Buckets):])
	if len(s.Buckets) > 0 {
		out.Buckets = make([]int64, len(s.Buckets))
		copy(out.Buckets, s.Buckets)
		for i, v := range prev.Buckets {
			if i < len(out.Buckets) {
				out.Buckets[i] -= v
				if out.Buckets[i] < 0 {
					reset = true
				}
			}
		}
	}
	if reset {
		out = HistSnapshot{Count: s.Count, Sum: s.Sum}
		if len(s.Buckets) > 0 {
			out.Buckets = append([]int64(nil), s.Buckets...)
		}
	}
	return out
}

func anyPositive(b []int64) bool {
	for _, v := range b {
		if v > 0 {
			return true
		}
	}
	return false
}

// Quantile estimates the q-quantile (0..1) as the upper bound of the
// bucket containing the q*Count-th observation. The log2 shape bounds
// the overestimate at 2x. Returns 0 when the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			return BucketBound(i)
		}
	}
	return BucketBound(len(s.Buckets) - 1)
}

// Mean returns the average observed value, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// CallKinds bounds the kinds Timings.ObserveCall takes, a call's wire
// kind (api.KindOf); every kind is below it.
const CallKinds = 32

// callHist is a call kind's CUDA-level name (its "call.<name>" key) and
// service-time histogram: own, in one allocation, for all but cudaLaunch.
type callHist struct {
	name string
	*Histogram
	own Histogram
}

// Timings bundles the runtime's latency and size histograms. All
// durations are model-time nanoseconds except JournalCommitWall,
// which is wall time (fsync cost is real, not simulated). A zero
// Timings is ready to use.
type Timings struct {
	// call records service time per call kind, indexed by the call's
	// wire kind and created on the kind's first observation, so a
	// runtime carries histograms only for the kinds it serves
	// ("call.<name>" keys in Snapshot).
	call [CallKinds]atomic.Pointer[callHist]
	// Launch is the cudaLaunch call histogram, also named launch_latency.
	Launch Histogram
	// QueueWait is time parked waiting for a free vGPU.
	QueueWait Histogram
	// BindWait is total time from first bind attempt to bound.
	BindWait Histogram
	// SwapDur is the model time a swap-out's frees charged, one
	// observation per submission.
	SwapDur Histogram
	// SwapBytes is per-entry swap-out size in bytes (count = swap ops).
	SwapBytes Histogram
	// H2D and D2H are the model time each vectored copy charged, one
	// observation per submission however many entries it moves; time
	// spent waiting for the engine is not in them.
	H2D Histogram
	D2H Histogram
	// JournalCommitWall is wall-clock nanoseconds per durable kernel
	// commit (dominated by fsync).
	JournalCommitWall Histogram
	// DedupSaved is retired with swap deduplication and observes
	// nothing. It stays only because benchmark/ reads it; delete it and
	// its family when the benchmark module drops that read.
	DedupSaved Histogram
	// MigrationDur is model time per completed cross-node migration
	// (export → committed import on the target).
	MigrationDur Histogram
	// MigrationBytes is wire bytes actually shipped per migration —
	// after chunks a resumed transfer had spooled were excluded.
	MigrationBytes Histogram
}

// ObserveCall records, on lane, one service time of a call of wire kind
// kind (api.KindOf) and CUDA-level name name: an array index and an
// atomic load, with no lock and no map. cudaLaunch observes into Launch.
func (t *Timings) ObserveCall(kind int, name string, lane int, v int64) {
	h := t.call[kind].Load()
	if h == nil {
		c := &callHist{name: name, Histogram: &t.Launch}
		if name != "cudaLaunch" {
			c.Histogram = &c.own
		}
		t.call[kind].CompareAndSwap(nil, c)
		h = t.call[kind].Load()
	}
	h.ObserveLane(lane, v)
}

// Family declares one histogram family: the key its snapshot carries,
// its exposition name and help, and its unit — bytes, or nanoseconds
// exposed as seconds.
type Family struct {
	Key, Metric, Help string
	Bytes             bool
	hist              func(*Timings) *Histogram
}

// Families is the one declaration of the named Timings histograms,
// sorted by key (the order /metrics renders them in).
var Families = []Family{
	{"bind_wait", "gvrt_bind_wait_seconds", "Time from first bind attempt to bound (model seconds).", false, func(t *Timings) *Histogram { return &t.BindWait }},
	{"d2h", "gvrt_d2h_transfer_seconds", "Device-to-host copy time each submission charged on the device model, engine queueing excluded (model seconds).", false, func(t *Timings) *Histogram { return &t.D2H }},
	{"dedup_saved", "gvrt_dedup_seal_saved_bytes", "Bytes saved per swap-image seal by chunk deduplication (bytes).", true, func(t *Timings) *Histogram { return &t.DedupSaved }},
	{"h2d", "gvrt_h2d_transfer_seconds", "Host-to-device copy time each submission charged on the device model, engine queueing excluded (model seconds).", false, func(t *Timings) *Histogram { return &t.H2D }},
	{"journal_commit_wall", "gvrt_journal_commit_wall_seconds", "Durable kernel commit cost (WALL seconds, dominated by fsync).", false, func(t *Timings) *Histogram { return &t.JournalCommitWall }},
	{"launch_latency", "gvrt_launch_latency_seconds", "End-to-end kernel launch service time (model seconds).", false, func(t *Timings) *Histogram { return &t.Launch }},
	{"migration_bytes", "gvrt_migration_size_bytes", "Wire bytes actually shipped per cross-node migration (after dedup/resume exclusion).", true, func(t *Timings) *Histogram { return &t.MigrationBytes }},
	{"migration_duration", "gvrt_migration_duration_seconds", "Cross-node session migration duration (model seconds).", false, func(t *Timings) *Histogram { return &t.MigrationDur }},
	{"queue_wait", "gvrt_queue_wait_seconds", "Time parked waiting for a free virtual GPU (model seconds).", false, func(t *Timings) *Histogram { return &t.QueueWait }},
	{"swap_bytes", "gvrt_swap_size_bytes", "Size of each entry swapped out (bytes).", true, func(t *Timings) *Histogram { return &t.SwapBytes }},
	{"swap_duration", "gvrt_swap_duration_seconds", "Device frees' time each swap-out charged on the device model; its spill is a d2h transfer (model seconds).", false, func(t *Timings) *Histogram { return &t.SwapDur }},
}

// CallFamily declares the per-call-kind histograms (Timings.ObserveCall),
// keyed "call.<kind>" in a snapshot and labelled by kind on /metrics.
var CallFamily = Family{Key: "call.", Metric: "gvrt_call_duration_seconds", Help: "Service time per CUDA call kind (model seconds)."}

// Scale is the number of recorded units per exposed unit: 1 for bytes,
// 1e9 for nanoseconds exposed as seconds.
func (f Family) Scale() float64 {
	if f.Bytes {
		return 1
	}
	return 1e9
}

// FormatValue renders a value of the histogram keyed key in its
// family's unit: "65536B" for bytes, a duration otherwise.
func FormatValue(key string, v int64) string {
	for _, f := range Families {
		if f.Key == key && f.Bytes {
			return strconv.FormatInt(v, 10) + "B"
		}
	}
	return time.Duration(v).String()
}

// SortedKeys returns a snapshot map's keys in order.
func SortedKeys(m map[string]HistSnapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot renders every histogram with a non-zero count, keyed by
// family key.
func (t *Timings) Snapshot() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot)
	for k := range t.call {
		if h := t.call[k].Load(); h != nil {
			out[CallFamily.Key+h.name] = h.Snapshot()
		}
	}
	for _, f := range Families {
		if s := f.hist(t).Snapshot(); s.Count > 0 {
			out[f.Key] = s
		}
	}
	return out
}
