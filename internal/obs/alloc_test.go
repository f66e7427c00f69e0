package obs

import (
	"testing"
	"time"
)

// TestRecordPathZeroAllocs pins the tentpole constraint: recording on
// resolved handles allocates nothing. If a future change boxes a value or grows a closure on any
// of these paths, this fails before any benchmark notices.
func TestRecordPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ns", "", LatencyBuckets())
	vc := r.CounterVec("vc_total", "", "shard").With("shard-0")
	vh := r.HistogramVec("vh_ns", "", LatencyBuckets(), "shard").With("shard-0")
	t0 := time.Now()

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Histogram.Observe", func() { h.Observe(123_456) }},
		{"Histogram.ObserveSince", func() { h.ObserveSince(t0) }},
		{"Vec counter handle", func() { vc.Inc() }},
		{"Vec histogram handle", func() { vh.Observe(42) }},
		{"nil Counter", func() { (*Counter)(nil).Inc() }},
		{"nil Histogram", func() { (*Histogram)(nil).Observe(1) }},
	}
	for _, tc := range cases {
		tc.fn() // warm
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h_ns", "", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 1001)
	}
}
