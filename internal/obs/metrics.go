package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil Counter silently discards records, so handles
// resolved from a nil Registry cost one predictable branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//fpvet:hotpath called from zero-alloc request paths
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta (negative deltas are ignored: counters only go up).
//
//fpvet:hotpath called from zero-alloc request paths
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(uint64(delta))
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-receiver safe like
// Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//fpvet:hotpath called from zero-alloc request paths
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Inc adds one.
//
//fpvet:hotpath called from zero-alloc request paths
func (g *Gauge) Inc() {
	if g == nil {
		return
	}
	g.v.Add(1)
}

// Dec subtracts one.
//
//fpvet:hotpath called from zero-alloc request paths
func (g *Gauge) Dec() {
	if g == nil {
		return
	}
	g.v.Add(-1)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive
// upper bounds in ascending order; observations above the last bound
// land in an implicit +Inf bucket. Recording is lock-free: one linear
// scan over the bounds (tens of entries, cache-resident) and three
// atomic adds. A nil Histogram discards records.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value.
//
//fpvet:hotpath one bounds scan plus three atomic adds
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since t0 — the common
// latency-histogram idiom: h.ObserveSince(start).
//
//fpvet:hotpath called from zero-alloc request paths
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) by
// linear interpolation inside the bucket holding that rank.
// Observations in the +Inf bucket are attributed to the last finite
// bound, so an estimate never invents a value the bounds cannot
// express. Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: report the largest expressible bound.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := float64(rank-cum) / float64(n)
		return lo + int64(float64(hi-lo)*frac)
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshotInto copies the bucket counters into dst (len(counts)).
func (h *Histogram) snapshotInto(dst []uint64) (count uint64, sum int64) {
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return h.count.Load(), h.sum.Load()
}

// LatencyBuckets returns the standard latency bounds in nanoseconds:
// 1µs to 10s with 1-2.5-5 spacing. Callers may append or slice the
// result freely; each call returns a fresh slice.
func LatencyBuckets() []int64 {
	return []int64{
		1_000, 2_500, 5_000, // 1µs .. 5µs
		10_000, 25_000, 50_000, // 10µs .. 50µs
		100_000, 250_000, 500_000, // 100µs .. 500µs
		1_000_000, 2_500_000, 5_000_000, // 1ms .. 5ms
		10_000_000, 25_000_000, 50_000_000, // 10ms .. 50ms
		100_000_000, 250_000_000, 500_000_000, // 100ms .. 500ms
		1_000_000_000, 2_500_000_000, 5_000_000_000, // 1s .. 5s
		10_000_000_000, // 10s
	}
}

// SizeBuckets returns power-of-four bounds from 1 to 1Mi, suitable
// for shortlist sizes, fan-out widths, and frame byte counts.
func SizeBuckets() []int64 {
	return []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}
