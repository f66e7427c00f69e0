package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and hands out record handles. All
// methods are safe for concurrent use and get-or-create: registering
// the same name twice with an identical schema returns the existing
// family, so independent components (per-shard stores, client and
// server of the same process) can share families. Re-registering a
// name with a different kind, label keys, or bucket bounds panics —
// that is a programming error, caught at setup time.
//
// Every method is nil-receiver safe and returns nil handles from a
// nil *Registry, which record methods in turn treat as no-ops: code
// can instrument unconditionally and let a nil registry disable the
// whole plane.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label-key schema and any
// number of label-value series.
type family struct {
	name   string
	help   string
	kind   metricKind
	keys   []string
	bounds []int64 // histogram families only

	mu     sync.Mutex
	order  []*series
	byKey  map[string]*series
	gaugeF map[string]func() int64 // callback gauges, keyed like byKey
}

// series is one label-value combination inside a family.
type series struct {
	labels []string // values, parallel to family.keys
	c      *Counter
	g      *Gauge
	h      *Histogram
}

const labelSep = "\x1f"

func (r *Registry) lookup(name, help string, kind metricKind, keys []string, bounds []int64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.keys, keys) || !equalInt64s(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema (have %s%v, want %s%v)",
				name, f.kind, f.keys, kind, keys))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		keys:   append([]string(nil), keys...),
		bounds: append([]int64(nil), bounds...),
		byKey:  make(map[string]*series),
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (f *family) with(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values %v, got %d",
			f.name, len(f.keys), f.keys, len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{
			bounds: f.bounds,
			counts: make([]atomic.Uint64, len(f.bounds)+1),
		}
	}
	f.byKey[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, nil).with(nil).c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, nil).with(nil).g
}

// Histogram registers (or finds) an unlabeled histogram with the
// given inclusive upper bounds (ascending; an implicit +Inf bucket is
// added).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	return r.lookup(name, help, kindHistogram, nil, bounds).with(nil).h
}

// GaugeFunc registers a callback gauge evaluated at exposition time —
// for values some other structure already maintains (pool occupancy,
// map sizes). Re-registering the same name replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	f := r.lookup(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gaugeF == nil {
		f.gaugeF = make(map[string]func() int64)
	}
	f.gaugeF[""] = fn
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, keys, nil)}
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, keys, nil)}
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []int64, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, keys, bounds)}
}

func checkBounds(name string, bounds []int64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	// Sorted under <= means strictly ascending: a repeated bound would
	// expose two buckets with one le label.
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] <= bounds[j] }) {
		panic(fmt.Sprintf("obs: histogram %q bounds must be strictly ascending", name))
	}
}

// CounterVec resolves label values to Counter handles. Resolution
// takes the family lock and may allocate — do it at setup time and
// keep the handle.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per key,
// in key order), creating the series on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(values).c
}

// GaugeVec resolves label values to Gauge handles.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.with(values).g
}

// HistogramVec resolves label values to Histogram handles.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(values).h
}
