package trace

import (
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets. Bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 holds
// v <= 0. 64 buckets cover the full int64 range, so nanosecond
// latencies from 1ns to ~292 years land without configuration.
const histBuckets = 64

// Histogram is a fixed-shape log2-bucketed histogram. Observe is
// lock-free (one atomic add per bucket plus count and sum), Snapshot
// is a consistent-enough read for monitoring (buckets are read
// individually, so a snapshot taken during heavy traffic may be off
// by in-flight observations — acceptable for exposition). The shape
// is identical across all histograms, which makes snapshots mergeable
// bucket-by-bucket.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
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

// Observe records one value (typically nanoseconds or bytes).
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a Histogram, shaped for the
// wire: Buckets[i] is the count of observations in log2 bucket i,
// with trailing zero buckets trimmed to keep StatsCall replies small.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	last := -1
	var raw [histBuckets]int64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
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

// HistVec is a set of Histograms keyed by label (e.g. per call kind).
// Lookup takes a read lock; Observe on the returned histogram is
// lock-free.
type HistVec struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// Observe records v under label, creating the histogram on first use.
func (v *HistVec) Observe(label string, val int64) {
	v.With(label).Observe(val)
}

// With returns the histogram for label, creating it on first use.
func (v *HistVec) With(label string) *Histogram {
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Histogram)
	}
	if h = v.m[label]; h == nil {
		h = &Histogram{}
		v.m[label] = h
	}
	return h
}

// Labels returns the registered labels, sorted.
func (v *HistVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for k := range v.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot copies every labeled histogram.
func (v *HistVec) Snapshot() map[string]HistSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(v.m))
	for k, h := range v.m {
		out[k] = h.Snapshot()
	}
	return out
}

// Timings bundles the runtime's latency and size histograms. All
// durations are model-time nanoseconds except JournalCommitWall,
// which is wall time (fsync cost is real, not simulated). A zero
// Timings is ready to use.
type Timings struct {
	// Call records service time per call kind ("call.<name>" keys in
	// Snapshot).
	Call HistVec
	// Launch is end-to-end kernel launch service time.
	Launch Histogram
	// QueueWait is time parked waiting for a free vGPU.
	QueueWait Histogram
	// BindWait is total time from first bind attempt to bound.
	BindWait Histogram
	// SwapDur is per-swap-operation duration.
	SwapDur Histogram
	// SwapBytes is per-swap-operation size in bytes.
	SwapBytes Histogram
	// H2D and D2H are per-submission durations: one observation per
	// vectored copy, however many entries it moves.
	H2D Histogram
	D2H Histogram
	// JournalCommitWall is wall-clock nanoseconds per durable kernel
	// commit (dominated by fsync).
	JournalCommitWall Histogram
	// PeerCall is per-peer-RPC round-trip time.
	PeerCall Histogram
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
	{"d2h", "gvrt_d2h_transfer_seconds", "Device-to-host copy duration per submission (model seconds).", false, func(t *Timings) *Histogram { return &t.D2H }},
	{"dedup_saved", "gvrt_dedup_seal_saved_bytes", "Bytes saved per swap-image seal by chunk deduplication (bytes).", true, func(t *Timings) *Histogram { return &t.DedupSaved }},
	{"h2d", "gvrt_h2d_transfer_seconds", "Host-to-device copy duration per submission (model seconds).", false, func(t *Timings) *Histogram { return &t.H2D }},
	{"journal_commit_wall", "gvrt_journal_commit_wall_seconds", "Durable kernel commit cost (WALL seconds, dominated by fsync).", false, func(t *Timings) *Histogram { return &t.JournalCommitWall }},
	{"launch_latency", "gvrt_launch_latency_seconds", "End-to-end kernel launch service time (model seconds).", false, func(t *Timings) *Histogram { return &t.Launch }},
	{"migration_bytes", "gvrt_migration_size_bytes", "Wire bytes actually shipped per cross-node migration (after dedup/resume exclusion).", true, func(t *Timings) *Histogram { return &t.MigrationBytes }},
	{"migration_duration", "gvrt_migration_duration_seconds", "Cross-node session migration duration (model seconds).", false, func(t *Timings) *Histogram { return &t.MigrationDur }},
	{"peer_call", "gvrt_peer_call_seconds", "Peer RPC round-trip time (model seconds).", false, func(t *Timings) *Histogram { return &t.PeerCall }},
	{"queue_wait", "gvrt_queue_wait_seconds", "Time parked waiting for a free virtual GPU (model seconds).", false, func(t *Timings) *Histogram { return &t.QueueWait }},
	{"swap_bytes", "gvrt_swap_size_bytes", "Per-swap-operation size (bytes).", true, func(t *Timings) *Histogram { return &t.SwapBytes }},
	{"swap_duration", "gvrt_swap_duration_seconds", "Per-swap-operation duration (model seconds).", false, func(t *Timings) *Histogram { return &t.SwapDur }},
}

// CallFamily declares the per-call-kind histograms (Timings.Call),
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
	for k, s := range t.Call.Snapshot() {
		if s.Count > 0 {
			out[CallFamily.Key+k] = s
		}
	}
	for _, f := range Families {
		if s := f.hist(t).Snapshot(); s.Count > 0 {
			out[f.Key] = s
		}
	}
	return out
}
