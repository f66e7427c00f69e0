package obs

import (
	"io"
	"sync"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // counters only go up; negative deltas are dropped
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGaugeSemantics(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Inc()
	g.Dec()
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestNilRegistryHandsOutNilHandles(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", LatencyBuckets()).Observe(1)
	r.GaugeFunc("d", "", func() int64 { return 1 })
	r.CounterVec("e", "", "k").With("v").Inc()
	r.GaugeVec("f", "", "k").With("v").Set(1)
	r.HistogramVec("g", "", SizeBuckets(), "k").With("v").Observe(1)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	want := []uint64{2, 2, 0, 1} // [<=10]=2 (5,10), (10,100]=2 (11,100), (100,1000]=0, +Inf=1
	got := make([]uint64, 4)
	if _, sum := h.snapshotInto(got); sum != 5126 {
		t.Fatalf("sum = %d, want 5126", sum)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{10, 20, 30, 40})
	// 100 observations uniform over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(int64((i*40 + 99) / 100))
	}
	if got := h.Quantile(0.5); got < 15 || got > 25 {
		t.Fatalf("p50 = %d, want ~20", got)
	}
	if got := h.Quantile(0.99); got < 35 || got > 40 {
		t.Fatalf("p99 = %d, want ~40", got)
	}
	if got := h.Quantile(0); got < 0 || got > 10 {
		t.Fatalf("p0 = %d, want in first bucket", got)
	}
	if got := h.Quantile(1); got != 40 {
		t.Fatalf("p100 = %d, want 40", got)
	}
}

func TestHistogramQuantileOverflowClampsToLastBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{10})
	h.Observe(99999)
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("overflow quantile = %d, want last bound 10", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "help")
	b := r.Counter("shared_total", "help")
	if a != b {
		t.Fatal("same-schema re-registration must return the same handle")
	}
	v1 := r.CounterVec("vec_total", "", "shard")
	v2 := r.CounterVec("vec_total", "", "shard")
	if v1.With("s0") != v2.With("s0") {
		t.Fatal("vec series must be shared across re-registrations")
	}
	if v1.With("s0") == v1.With("s1") {
		t.Fatal("distinct label values must get distinct series")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", LatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestLatencyBucketsAscending(t *testing.T) {
	for _, bs := range [][]int64{LatencyBuckets(), SizeBuckets()} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("bounds not ascending at %d: %v", i, bs)
			}
		}
	}
}

// TestRegistrySchemaMismatchPanics covers every way a second
// registration or a label lookup can disagree with the first, and every
// malformed bucket list: each must panic rather than hand out a series
// of another shape.
func TestRegistrySchemaMismatchPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(r *Registry)
	}{
		{"counter re-registered as a gauge", func(r *Registry) { r.Gauge("m", "") }},
		{"more label keys", func(r *Registry) { r.CounterVec("c", "", "shard", "op") }},
		{"other label key", func(r *Registry) { r.CounterVec("c", "", "node") }},
		{"no label keys", func(r *Registry) { r.Counter("c", "") }},
		{"fewer bucket bounds", func(r *Registry) { r.Histogram("h", "", []int64{10}) }},
		{"other bucket bounds", func(r *Registry) { r.Histogram("h", "", []int64{10, 30}) }},
		{"empty bucket bounds", func(r *Registry) { r.Histogram("h2", "", nil) }},
		{"descending bucket bounds", func(r *Registry) { r.Histogram("h2", "", []int64{20, 10}) }},
		{"repeated bucket bound", func(r *Registry) { r.Histogram("h2", "", []int64{10, 10}) }},
		{"too few label values", func(r *Registry) { r.CounterVec("c", "", "shard").With() }},
		{"too many label values", func(r *Registry) { r.CounterVec("c", "", "shard").With("a", "b") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("m", "")
			r.CounterVec("c", "", "shard")
			r.Histogram("h", "", []int64{10, 20})
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.bad(r)
		})
	}
}
