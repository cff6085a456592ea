package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 50, false},
		{19, 50, false},
		{40, 75, true},   // 10 beyond p75
		{39, 50, false},  // p75 leaves 9
		{100, 90, true},  // 10 beyond p90
		{199, 90, true},  // p95 leaves 9
		{200, 95, true},  // 10 beyond p95
		{999, 95, true},  // p99 leaves 9
		{1000, 99, true}, // 10 beyond p99
		{100000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestSummarizeReportsCountAndPercentile(t *testing.T) {
	s := summarize(seq(1000))
	if s.N != 1000 || s.P50 != 500.5 || s.Tail != 990 || s.TailAt != "p99" {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	// Too few samples for any tail: the median stands in.
	s = summarize([]float64{3, 1, 2})
	if s.N != 3 || s.P50 != 2 || s.Tail != 2 || s.TailAt != "p50" {
		t.Errorf("summarize(3 samples) = %+v", s)
	}
}

func TestChunkedTailIgnoresOneBadChunk(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 1000; i < 2000; i++ {
		xs[i] = 50 // a stall covering the whole middle chunk
	}
	if got, _ := chunkedTail(xs, 99); got != 1 {
		t.Errorf("chunkedTail with one stalled chunk = %v, want 1", got)
	}
	// Below two chunks it falls back to the whole-sample tail.
	if got, at := chunkedTail(seq(1500), 99); got != 1485 || at != "p99" {
		t.Errorf("chunkedTail(1500) = %v at %s, want 1485 at p99", got, at)
	}
}

func TestMedianRate(t *testing.T) {
	var ends []time.Duration
	// 10 completions in each of seconds 0, 1 and 3; none in second 2.
	for _, sec := range []int{0, 1, 3} {
		for i := 0; i < 10; i++ {
			ends = append(ends, time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := medianRate(ends, 4*time.Second, time.Second); got != 10 {
		t.Errorf("medianRate = %v, want 10", got)
	}
	if got := medianRate(ends[:5], 1500*time.Millisecond, time.Second); got != 5/1.5 {
		t.Errorf("medianRate over a short window = %v, want the mean rate", got)
	}
}

func TestFailedShareCountsEveryFailure(t *testing.T) {
	var tl tally
	if tl.failedShare() != 1 {
		t.Errorf("nothing attempted: failed share %v, want 1", tl.failedShare())
	}
	for i := 0; i < 8; i++ {
		tl.add(i%4 != 0) // two of eight fail
	}
	if tl.attempted != 8 || tl.failed != 2 || tl.failedShare() != 0.25 {
		t.Errorf("tally = %+v share %v, want 8 attempted, 2 failed, 0.25", tl, tl.failedShare())
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 || xs[0] != 3 {
		t.Errorf("median = %v and input %v; want 2 and the input untouched", got, xs)
	}
}
