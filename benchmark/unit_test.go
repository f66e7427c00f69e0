package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"fpinterop/internal/rng"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(vals, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN, not a fast answer")
	}
}

func TestMedianOfWindows(t *testing.T) {
	got := medianOfWindows([]float64{14.6, 17.7, 15.0})
	if got.Value != 15.0 {
		t.Errorf("value = %v, want the middle window 15.0", got.Value)
	}
	if want := (17.7 - 14.6) / 15.0; math.Abs(got.Spread-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got.Spread, want)
	}
}

func TestWindowPercentile(t *testing.T) {
	window := func(n int, base float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base + float64(i)
		}
		return out
	}
	// Full windows: one disturbed window does not move the median.
	full := [][]float64{window(100, 0), window(100, 1000), window(100, 2)}
	if got := windowPercentile(full, 0.5); got.Value != 51.5 || len(got.Windows) != 3 {
		t.Errorf("full windows: got %+v, want the middle window's median 51.5", got)
	}
	// A window under minWindowSamples pools everything.
	thin := [][]float64{window(10, 0), window(100, 0), window(100, 0)}
	got := windowPercentile(thin, 0.5)
	var pooled []float64
	for _, w := range thin {
		pooled = append(pooled, w...)
	}
	if got.Value != percentile(pooled, 0.5) || got.Windows != nil {
		t.Errorf("thin windows: got %+v, want the pooled median and no windows", got)
	}
}

func TestBuildScheduleDeterministicPerSeed(t *testing.T) {
	streams := []stream{{kind: opEnroll, rate: 60}, {kind: opRemove, rate: 20}, {kind: opIdentify, rate: 20}}
	d := 3 * time.Second
	build := func(seed uint64) []event { return buildSchedule(rng.New(seed).Child("schedule"), streams, d) }
	a, b, c := build(7), build(7), build(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := map[opKind]int{}
	for i, ev := range a {
		counts[ev.kind]++
		if ev.due < 0 || ev.due >= d {
			t.Fatalf("event %d due %v outside [0, %v)", i, ev.due, d)
		}
		if i > 0 && ev.due < a[i-1].due {
			t.Fatalf("event %d due before event %d", i, i-1)
		}
	}
	if counts[opEnroll] != 180 || counts[opRemove] != 60 || counts[opIdentify] != 60 {
		t.Errorf("counts = %v, want exactly rate x duration per stream", counts)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},    // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},   // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 45}, // grandchild: b's business only
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	// The ladder's layout: children laid from the parent's start, so
	// self = duration - sum of children.
	ladder := &ladder{tr: &tracer{}}
	durs := map[string][]time.Duration{
		"fpis.identify": {130}, "matchsvc.identify": {120}, "gallery.identify": {100},
		"index.vote": {60}, "match.shortlist": {30},
	}
	ladder.emit(0, 0, []string{"fpis.identify", "matchsvc.identify", "gallery.identify"}, durs)
	got := selfByName(ladder.tr.spans)
	for name, want := range map[string]time.Duration{
		"fpis.identify": 10, "matchsvc.identify": 20, "gallery.identify": 10, "index.vote": 60, "match.shortlist": 30,
	} {
		if got[name] != want {
			t.Errorf("ladder self time of %s = %v, want %v", name, got[name], want)
		}
	}
}

const metricsBefore = `{
  "gallery_identify_total{shard=local}": 10,
  "gallery_scanned_total{shard=local}": 640,
  "matchsvc_server_connections": 2,
  "matchsvc_server_latency_ns{op=identify_ex}": {"count": 10, "sum": 100000000, "p50": 1, "p90": 1, "p99": 1,
    "buckets": [{"le": "5000000", "count": 0}, {"le": "10000000", "count": 6}, {"le": "25000000", "count": 10}, {"le": "+Inf", "count": 10}]},
  "matchsvc_server_latency_ns{op=verify}": {"count": 3, "sum": 600000, "p50": 1, "p90": 1, "p99": 1,
    "buckets": [{"le": "5000000", "count": 3}, {"le": "10000000", "count": 3}, {"le": "25000000", "count": 3}, {"le": "+Inf", "count": 3}]}
}`

const metricsAfter = `{
  "gallery_identify_total{shard=local}": 30,
  "gallery_scanned_total{shard=local}": 1920,
  "gallery_index_fallback_total{shard=local}": 1,
  "matchsvc_server_connections": 3,
  "matchsvc_server_latency_ns{op=identify_ex}": {"count": 30, "sum": 400000000, "p50": 1, "p90": 1, "p99": 1,
    "buckets": [{"le": "5000000", "count": 0}, {"le": "10000000", "count": 6}, {"le": "25000000", "count": 26}, {"le": "+Inf", "count": 30}]},
  "matchsvc_server_latency_ns{op=verify}": {"count": 3, "sum": 600000, "p50": 1, "p90": 1, "p99": 1,
    "buckets": [{"le": "5000000", "count": 3}, {"le": "10000000", "count": 3}, {"le": "25000000", "count": 3}, {"le": "+Inf", "count": 3}]}
}`

func TestMetricsDiff(t *testing.T) {
	before, err := parseMetricsJSON([]byte(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetricsJSON([]byte(metricsAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.since(before)
	if got := d.value("gallery_identify_total", ""); got != 20 {
		t.Errorf("identifies in the window = %v, want 20", got)
	}
	if got := d.value("gallery_scanned_total", "shard=local") / d.value("gallery_identify_total", ""); got != 64 {
		t.Errorf("scanned per identify = %v, want 64", got)
	}
	if got := d.value("gallery_index_fallback_total", ""); got != 1 {
		t.Errorf("a series that first appears after the window starts counts from zero: got %v, want 1", got)
	}
	if got := d.value("gallery_identify", ""); got != 0 {
		t.Errorf("family name must match whole, not by prefix: got %v", got)
	}
	h := d.hist("matchsvc_server_latency_ns", "op=identify")
	if h.Count != 20 || h.mean() != 15e6 {
		t.Errorf("identify latency in the window: count %v mean %v, want 20 and 15e6", h.Count, h.mean())
	}
	// All 16 finite observations of the window fall in (10ms, 25ms]; the
	// median is rank 10 of those 16 plus the 4 beyond: 10ms + 15ms*10/16.
	if got, want := h.quantile(0.5), 10e6+15e6*10/16; math.Abs(got-want) > 1 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := d.hist("matchsvc_server_latency_ns", "op=verify").Count; got != 0 {
		t.Errorf("verify count in the window = %v, want 0", got)
	}

	fleet := snapshot{values: map[string]float64{}, hists: map[string]histogram{}}
	fleet.merge(d)
	fleet.merge(d)
	if got := fleet.value("gallery_identify_total", ""); got != 40 {
		t.Errorf("merged identifies = %v, want 40", got)
	}
	if got := fleet.hist("matchsvc_server_latency_ns", "op=identify").Count; got != 40 {
		t.Errorf("merged histogram count = %v, want 40", got)
	}
	if _, err := parseMetricsJSON([]byte(`{"x": "text"}`)); err == nil {
		t.Error("a series that is neither number nor histogram must be an error")
	}
}

func TestReadSkew(t *testing.T) {
	s := snapshot{values: map[string]float64{
		"replica_reads_total{set=a:1,member=a:1}": 100,
		"replica_reads_total{set=a:1,member=r:1}": 50,
		"replica_reads_total{set=b:1,member=b:1}": 30,
		"replica_reads_total{set=b:1,member=r:2}": 30,
	}}
	if got := readSkew(s); got != 2 {
		t.Errorf("read skew = %v, want 2 (the worse of the two sets)", got)
	}
	if got := readSkew(snapshot{}); got != 0 {
		t.Errorf("read skew with no replica sets = %v, want 0", got)
	}
}

func TestParseListening(t *testing.T) {
	log := []byte(`ts=2026-09-26T10:11:12.123Z level=info msg="wal recovery" dir=/tmp/x snapshot_entries=0 replayed=10000
ts=2026-09-26T10:11:16.001Z level=info msg="index enabled" templates=10000 keys=1 postings=2
ts=2026-09-26T10:11:16.002Z level=info msg=listening addr=127.0.0.1:37979 enrollments=10000
ts=2026-09-26T10:11:16.003Z level=info msg="metrics listening" addr=127.0.0.1:40001
`)
	addr, metrics := parseListening(log)
	if addr != "127.0.0.1:37979" || metrics != "127.0.0.1:40001" {
		t.Errorf("got %q and %q", addr, metrics)
	}
	addr, metrics = parseListening([]byte(`ts=x level=info msg="metrics listening" addr=127.0.0.1:1` + "\n"))
	if addr != "" || metrics != "127.0.0.1:1" {
		t.Errorf("the metrics line must not pass for the serving line: got %q and %q", addr, metrics)
	}
	if addr, _ := parseListening([]byte("ts=x level=info msg=listening addr=127.0.0.1:70")); addr != "127.0.0.1:70" {
		t.Errorf("a line still being written is enough once the address is whole: got %q", addr)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	stat := "4242 (match d) (x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 5 0 100 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 2.0 {
		t.Errorf("cpu = %v, %v; want 2.0 s from utime 150 + stime 50 ticks", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat must be an error")
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json, which the driver reads,
// and the tables in this package, which the program prints from, naming
// the same workloads and metrics with the same units.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, doc []metric, defs []metricDef) {
		if len(doc) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(doc), len(defs))
			return
		}
		for i, def := range defs {
			if doc[i].Name != def.name || doc[i].Unit != def.unit {
				t.Errorf("%s metric %d: %v in BENCHMARK.json, %v in the program", kind, i, doc[i], def)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
}
