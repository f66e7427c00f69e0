package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-width-bin histogram over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []int
	// Under and Over count samples outside the range.
	Under, Over int
}

// NewHistogram builds a histogram with n equal bins over [min, max).
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs > 0 bins")
	}
	if !(max > min) {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) empty", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if x < h.Min {
		h.Under++
		return
	}
	if x >= h.Max {
		h.Over++
		return
	}
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// BinRange returns the [lo, hi) edges of bin i.
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + float64(i)*w, h.Min + float64(i+1)*w
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using nearest-rank on
// a sorted copy.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0, 1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx], nil
}

// SortedCopy returns xs sorted ascending without modifying the input.
func SortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
