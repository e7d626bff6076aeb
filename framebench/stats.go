package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 200 samples is the second-largest value, not
// a tail estimate.
const minBeyond = 10

// tailLadder lists the percentiles highestTail may choose from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank returns the 1-based nearest-rank index of percentile p among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond returns how many of n samples lie above percentile p's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tail is a percentile together with the evidence behind it.
type tail struct {
	Pct    float64
	Value  float64
	Beyond int
}

// highestTail returns the highest percentile of tailLadder that has at
// least minBeyond samples beyond it. ok is false when not even the
// median has.
func highestTail(sorted []float64) (t tail, ok bool) {
	for _, p := range tailLadder {
		b := beyond(len(sorted), p)
		if b < minBeyond {
			break
		}
		t, ok = tail{Pct: p, Value: percentile(sorted, p), Beyond: b}, true
	}
	return t, ok
}

// mean returns the arithmetic mean of xs, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 when empty.
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

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
