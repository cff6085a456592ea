package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile resting on fewer samples is one outlier's
// value, not a property of the run.
const minBeyond = 10

// tailCandidates are the percentiles a tail may report, highest first.
// tailPercentile picks the first one the sample count supports.
var tailCandidates = []float64{99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples strictly above it. When n is too small for
// any candidate it returns the median and ok=false: no tail can be
// estimated, and the median is the most robust figure left.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rank(c, n) >= minBeyond {
			return c, true
		}
	}
	return 50, false
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is a timing distribution reported the same way
// everywhere: median, the selected tail percentile, and how many samples
// both rest on.
type latencySummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailAt string  `json:"tail_at"`
}

func summarize(xs []float64) latencySummary {
	s := sortedCopy(xs)
	p, _ := tailPercentile(len(s))
	return latencySummary{N: len(s), P50: median(s), Tail: percentile(s, p), TailAt: fmt.Sprintf("p%g", p)}
}

// chunkedTail is the p-th percentile latency of samples in completion
// order, estimated robustly: the samples are cut into consecutive chunks
// just large enough that a chunk's p-th percentile has minBeyond samples
// beyond it, and the result is the median over chunks. A stall on a
// shared host inflates the chunks it hits, not the estimate. With fewer
// than two chunks it falls back to summarize's tail over all samples.
func chunkedTail(inOrder []float64, p float64) (tail float64, at string) {
	chunk := int(math.Round(minBeyond * 100 / (100 - p)))
	if len(inOrder) < 2*chunk {
		s := summarize(inOrder)
		return s.Tail, s.TailAt
	}
	var tails []float64
	for i := 0; i+chunk <= len(inOrder); i += chunk {
		tails = append(tails, percentile(sortedCopy(inOrder[i:i+chunk]), p))
	}
	return median(tails), fmt.Sprintf("median p%g of %d chunks of %d", p, len(tails), chunk)
}

// medianRate is the median, over consecutive slices of a window, of the
// completions per second in each slice. ends are completion times from
// the window's start. A window shorter than two slices gives its mean
// rate.
func medianRate(ends []time.Duration, window, slice time.Duration) float64 {
	n := int(window / slice)
	if n < 2 {
		return ratio(float64(len(ends)), window.Seconds())
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if i := int(e / slice); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts) / slice.Seconds()
}

// tally counts attempted operations and the ones that failed, whether by
// an error, a bad status, or a wrong answer found by a correctness check.
type tally struct {
	attempted int64
	failed    int64
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// failedShare is failed ÷ attempted. A run that attempted nothing has
// measured nothing and counts as wholly failed.
func (t tally) failedShare() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio is num ÷ den, and 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
