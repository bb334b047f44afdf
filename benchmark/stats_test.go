package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample quantile = %v, want 7", got)
	}
	if got := quantile([]float64{1, 3}, 0.5); got != 2 {
		t.Errorf("even-length median = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	in := []float64{9, 1, 5, 3, 7}
	s := summarize(in)
	if s.N != 5 || s.Median != 5 || s.IQR != 4 || s.Min != 1 || s.Max != 9 {
		t.Errorf("summarize = %+v, want N 5 median 5 IQR 4 min 1 max 9", s)
	}
	if in[0] != 9 || in[1] != 1 {
		t.Errorf("summarize reordered its input: %v", in)
	}
	if z := summarize(nil); z != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", z)
	}
}

func TestPercentileNS(t *testing.T) {
	lat := make([]int64, 1000)
	for i := range lat {
		lat[i] = int64(1000 - i) // 1..1000, descending
	}
	if got := percentileNS(lat, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentileNS(lat, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentileNS(lat, 1); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
	if got := percentileNS(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	if got := percentileNS([]int64{42}, 0.99); got != 42 {
		t.Errorf("single sample = %v, want 42", got)
	}
}

func TestSplitEven(t *testing.T) {
	for _, c := range []struct {
		total, n int
		want     []int
	}{
		{10, 2, []int{5, 5}},
		{11, 2, []int{6, 5}},
		{2, 3, []int{1, 1, 0}},
		{0, 2, []int{0, 0}},
		{5, 0, nil},
	} {
		got := splitEven(c.total, c.n)
		if len(got) != len(c.want) {
			t.Errorf("splitEven(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
			continue
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Errorf("splitEven(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
				break
			}
		}
		if c.n > 0 && sum != c.total {
			t.Errorf("splitEven(%d, %d) assigns %d items", c.total, c.n, sum)
		}
	}
}

func TestPlanSessionsIsSeeded(t *testing.T) {
	mk := func(seed int64) [][]sessionPlan {
		w, err := newWorkload("durable-commit", tinySizes, 2, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return w.(*durableCommit).plan
	}
	a, b := mk(7), mk(7)
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("same seed, different plan at client %d session %d: %+v vs %+v", i, k, a[i][k], b[i][k])
			}
		}
	}
	total := 0
	for _, p := range a {
		total += len(p)
	}
	if total != tinySizes.durableSessions {
		t.Errorf("plan holds %d sessions, want %d", total, tinySizes.durableSessions)
	}
}
