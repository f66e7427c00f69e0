package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of vals by linear
// interpolation between closest ranks; vals need not be sorted and is
// not modified. An empty input yields NaN so a phase that sent nothing
// cannot pass for a fast one.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// windowStat is one reported number: the median of the per-window
// values and how far the windows disagreed, as (max-min)/median.
type windowStat struct {
	Value   float64
	Spread  float64
	Windows []float64
}

// medianOfWindows reduces per-window values to the reported value. A
// single disturbed window on a shared box moves the median of three far
// less than it moves a pooled percentile.
func medianOfWindows(vals []float64) windowStat {
	if len(vals) == 0 {
		return windowStat{Value: math.NaN()}
	}
	med := percentile(vals, 0.5)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	spread := 0.0
	if med != 0 {
		spread = (hi - lo) / med
	}
	return windowStat{Value: med, Spread: spread, Windows: vals}
}

// minWindowSamples is the fewest samples a window may hold and still
// give its own p95: three beyond the percentile. Phases too short or too
// slow for that are read as one pooled window, with no spread to show.
const minWindowSamples = 60

// windowPercentile computes the p-quantile inside each window and
// returns the median of those.
func windowPercentile(windows [][]float64, p float64) windowStat {
	var pooled []float64
	thin := false
	for _, w := range windows {
		pooled = append(pooled, w...)
		thin = thin || len(w) < minWindowSamples
	}
	if thin {
		return windowStat{Value: percentile(pooled, p)}
	}
	vals := make([]float64, 0, len(windows))
	for _, w := range windows {
		vals = append(vals, percentile(w, p))
	}
	return medianOfWindows(vals)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
