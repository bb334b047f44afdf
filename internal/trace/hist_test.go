package trace

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// Edge cases for the mergeable/subtractable snapshot algebra that the
// fleet collector and gvrt-top lean on: empty snapshots, single-bucket
// shapes, the overflow bucket, and Delta across a process restart
// (non-monotonic input must not panic or go negative).

func snap(vals ...int64) HistSnapshot {
	var h Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	return h.Snapshot()
}

func TestMergeEmpty(t *testing.T) {
	var empty HistSnapshot
	got := empty.Merge(empty)
	if got.Count != 0 || got.Sum != 0 || len(got.Buckets) != 0 {
		t.Fatalf("empty.Merge(empty) = %+v, want zero", got)
	}
	s := snap(100, 200, 300)
	if got := s.Merge(empty); got.Count != 3 || got.Sum != 600 {
		t.Fatalf("s.Merge(empty) = %+v, want count 3 sum 600", got)
	}
	if got := empty.Merge(s); got.Count != 3 || got.Sum != 600 {
		t.Fatalf("empty.Merge(s) = %+v, want count 3 sum 600", got)
	}
}

func TestMergeUnevenBucketLengths(t *testing.T) {
	short := snap(1)      // one bucket
	long := snap(1 << 40) // many buckets, trailing non-zero far out
	for _, got := range []HistSnapshot{short.Merge(long), long.Merge(short)} {
		if got.Count != 2 {
			t.Fatalf("merged count = %d, want 2", got.Count)
		}
		if len(got.Buckets) != len(long.Buckets) {
			t.Fatalf("merged bucket len = %d, want %d", len(got.Buckets), len(long.Buckets))
		}
		var sum int64
		for _, b := range got.Buckets {
			sum += b
		}
		if sum != 2 {
			t.Fatalf("merged bucket total = %d, want 2", sum)
		}
	}
}

func TestMergeDoesNotAliasInputs(t *testing.T) {
	a, b := snap(5, 6), snap(7)
	got := a.Merge(b)
	got.Buckets[0] += 99
	if a.Buckets[0] == got.Buckets[0] || b.Buckets[0] == got.Buckets[0] {
		t.Fatal("Merge result shares backing array with an input")
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	s := snap(1000, 1000, 1000)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got != BucketBound(bucketOf(1000)) {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, BucketBound(bucketOf(1000)))
		}
	}
}

func TestQuantileEmptyAndClamping(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	s := snap(10, 1000)
	if lo, hi := s.Quantile(-5), s.Quantile(0); lo != hi {
		t.Fatalf("q<0 not clamped: %d vs %d", lo, hi)
	}
	if lo, hi := s.Quantile(99), s.Quantile(1); lo != hi {
		t.Fatalf("q>1 not clamped: %d vs %d", lo, hi)
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	// Values with bits.Len64 >= 63 land in the top buckets whose bound
	// is the +Inf sentinel; the quantile walk must return the sentinel,
	// not panic or overflow.
	s := snap(math.MaxInt64, math.MaxInt64)
	got := s.Quantile(0.99)
	if got != int64(1)<<62 {
		t.Fatalf("overflow-bucket quantile = %d, want sentinel %d", got, int64(1)<<62)
	}
}

func TestObserveNonPositive(t *testing.T) {
	s := snap(0, -5)
	if s.Count != 2 || len(s.Buckets) != 1 || s.Buckets[0] != 2 {
		t.Fatalf("non-positive values should land in bucket 0: %+v", s)
	}
	if got := s.Quantile(0.5); got != BucketBound(0) {
		t.Fatalf("bucket-0 quantile = %d, want %d", got, BucketBound(0))
	}
}

func TestDeltaMonotonic(t *testing.T) {
	var h Histogram
	h.Observe(100)
	h.Observe(200)
	prev := h.Snapshot()
	h.Observe(400)
	got := h.Snapshot().Delta(prev)
	if got.Count != 1 || got.Sum != 400 {
		t.Fatalf("delta = %+v, want count 1 sum 400", got)
	}
}

func TestDeltaEmptyPrev(t *testing.T) {
	s := snap(1, 2, 3)
	got := s.Delta(HistSnapshot{})
	if got.Count != s.Count || got.Sum != s.Sum {
		t.Fatalf("delta vs empty = %+v, want %+v", got, s)
	}
}

func TestDeltaAcrossRestart(t *testing.T) {
	// prev came from a process that observed a lot; the process
	// restarted and the new (smaller) snapshot is not a superset of
	// prev. Delta must not panic and must not report negative counts —
	// it treats the post-restart snapshot as entirely new.
	prev := snap(100, 100, 100, 5000)
	cur := snap(250)
	got := cur.Delta(prev)
	if got.Count != cur.Count || got.Sum != cur.Sum {
		t.Fatalf("restart delta = %+v, want cur %+v", got, cur)
	}
	for i, b := range got.Buckets {
		if b < 0 {
			t.Fatalf("restart delta bucket %d = %d, negative", i, b)
		}
	}
}

func TestDeltaRestartShorterPrev(t *testing.T) {
	// Restart where the new process has already observed more total
	// events than prev, but in different buckets — count alone cannot
	// detect the reset; the per-bucket check must.
	prev := snap(1 << 30)
	cur := snap(1, 1, 1)
	got := cur.Delta(prev)
	if got.Count != 3 {
		t.Fatalf("restart delta count = %d, want 3 (treat cur as fresh)", got.Count)
	}
	for i, b := range got.Buckets {
		if b < 0 {
			t.Fatalf("restart delta bucket %d = %d, negative", i, b)
		}
	}
}

func TestDeltaDoesNotAliasInput(t *testing.T) {
	cur := snap(10, 20)
	got := cur.Delta(snap(10, 20, 40, 80)) // forces the reset copy path
	if len(got.Buckets) > 0 {
		got.Buckets[0] += 99
		if cur.Buckets[0] == got.Buckets[0] {
			t.Fatal("Delta reset path aliases the current snapshot's buckets")
		}
	}
}

func TestDeltaNegativeSumNoReset(t *testing.T) {
	// Observe accepts negative values, so Sum may legitimately decrease
	// between snapshots while counts stay monotonic. That must not be
	// misread as a restart.
	var h Histogram
	h.Observe(1000)
	prev := h.Snapshot()
	h.Observe(-500)
	got := h.Snapshot().Delta(prev)
	if got.Count != 1 || got.Sum != -500 {
		t.Fatalf("negative-sum delta = %+v, want count 1 sum -500", got)
	}
}

func TestMergeDeltaRoundTrip(t *testing.T) {
	// (a merged b).Delta(a) == b for disjoint monotonic snapshots.
	a, b := snap(100, 2000), snap(300000)
	got := a.Merge(b).Delta(a)
	if got.Count != b.Count || got.Sum != b.Sum {
		t.Fatalf("round trip = %+v, want %+v", got, b)
	}
}

// TestFamiliesDeclareEveryTiming: each named Timings histogram has
// exactly one family, and Families stays sorted by key, the order the
// exposition renders it in.
func TestFamiliesDeclareEveryTiming(t *testing.T) {
	var tm Timings
	owner := map[*Histogram]string{}
	for i, f := range Families {
		if i > 0 && Families[i-1].Key >= f.Key {
			t.Errorf("Families not sorted by key: %q after %q", f.Key, Families[i-1].Key)
		}
		h := f.hist(&tm)
		if prev, ok := owner[h]; ok {
			t.Errorf("families %q and %q declare the same histogram", prev, f.Key)
		}
		owner[h] = f.Key
	}
	v := reflect.ValueOf(&tm).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue // the per-kind call histograms: CallFamily
		}
		h, ok := v.Field(i).Addr().Interface().(*Histogram)
		if ok && owner[h] == "" {
			t.Errorf("Timings.%s has no family", v.Type().Field(i).Name)
		}
	}
	if got := FormatValue("swap_bytes", 65536); got != "65536B" {
		t.Errorf("FormatValue(swap_bytes) = %q, want 65536B", got)
	}
	if got := FormatValue("call.cudaLaunch", 1500); got != "1.5µs" {
		t.Errorf("FormatValue(call.cudaLaunch) = %q, want 1.5µs", got)
	}
}

// TestSnapshotCountIsBucketSum: with Observe racing Snapshot, every
// snapshot's Count is the sum of its Buckets (there is no count word to
// drift from them), and counts never go backwards. Run it with -race.
func TestSnapshotCountIsBucketSum(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	done := make(chan struct{})
	defer wg.Wait()
	defer close(done)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-done:
					return
				default:
					h.Observe(i % 100000)
				}
			}
		}()
	}
	var prev int64
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var sum int64
		for _, b := range s.Buckets {
			sum += b
		}
		if s.Count != sum || s.Count < prev {
			t.Fatalf("snapshot %d: Count %d, bucket sum %d, previous Count %d", i, s.Count, sum, prev)
		}
		prev = s.Count
	}
}
