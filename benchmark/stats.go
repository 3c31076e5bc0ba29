package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at or
// below it. An empty slice yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// sortedCopy returns xs ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the mean of the two middle samples for even counts, the middle
// one otherwise; NaN when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the A/A acceptance rule is stated in.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sliceRates cuts (0, window] into consecutive slices of length slice (the
// last one dropped when shorter than half a slice), assigns every event to
// the slice its completion offset falls in, and returns the events per second
// of each. A slice is measured from the last completion before it to its own
// last completion, so the rate is not quantized to whole events per nominal
// slice; an empty slice rates 0. A window shorter than one slice is a single
// slice.
func sliceRates(ends []time.Duration, window, slice time.Duration) []float64 {
	if window <= 0 {
		return nil
	}
	if slice <= 0 || slice > window {
		slice = window
	}
	n := int(window / slice)
	if window-time.Duration(n)*slice >= slice/2 {
		n++
	}
	counts := make([]int, n)
	last := make([]time.Duration, n)
	for _, e := range ends {
		if e <= 0 || e > window {
			continue
		}
		// An event exactly on a boundary belongs to the slice it closes.
		if k := int((e - 1) / slice); k < n {
			counts[k]++
			last[k] = max(last[k], e)
		}
	}
	rates := make([]float64, n)
	var prev time.Duration
	for k, c := range counts {
		if c == 0 {
			prev = min(time.Duration(k+1)*slice, window)
			continue
		}
		rates[k] = float64(c) / (last[k] - prev).Seconds()
		prev = last[k]
	}
	return rates
}

// latencySummary holds the percentiles every workload reports.
type latencySummary struct {
	p50, p95, p99 float64
	samples       int
}

func summarize(ms []float64) latencySummary {
	s := sortedCopy(ms)
	return latencySummary{p50: percentile(s, 50), p95: percentile(s, 95), p99: percentile(s, 99), samples: len(s)}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
