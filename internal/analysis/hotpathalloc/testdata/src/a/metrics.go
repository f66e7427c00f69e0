package a

// Metric-recording shapes. The metered request paths record into
// pre-resolved handles with int64-only methods; these cases pin the
// shapes that reintroduce allocation at a record site: formatting a
// series key per call, building a label map, observing through a
// deferred closure, or reporting samples through a variadic logger.

import (
	"fmt"
	"time"
)

// Stub handles mirroring the real metric types: pointer receivers,
// int64-only record methods, nil-safe.
type statCounter struct{ v int64 }

func (c *statCounter) inc() {
	if c != nil {
		c.v++
	}
}

type statHistogram struct{ sum, n int64 }

func (h *statHistogram) observe(v int64) {
	if h != nil {
		h.sum += v
		h.n++
	}
}

type statVec struct{}

func (statVec) with(labels ...string) *statHistogram { return &statHistogram{} }

func emit(msg string, kv ...any) {}

// RecordPreResolved is the blessed record-site shape: handles resolved
// at setup time, one guarded timestamp, int64 all the way down.
//
//fpvet:hotpath
func RecordPreResolved(c *statCounter, h *statHistogram, t0 time.Time) {
	c.inc()
	h.observe(time.Since(t0).Nanoseconds())
}

// RecordLabelKey resolves the series per call with a formatted key —
// the classic metrics-in-the-hot-loop mistake.
//
//fpvet:hotpath
func RecordLabelKey(v statVec, shard int, d int64) {
	v.with(fmt.Sprintf("shard-%d", shard)).observe(d) // want hotpathalloc "fmt.Sprintf"
}

// RecordLabelMap builds a per-call label map.
//
//fpvet:hotpath
func RecordLabelMap(d int64) int {
	labels := map[string]string{"shard": "shard-0"} // want hotpathalloc "map literal"
	return len(labels)
}

// RecordDeferred observes through a deferred closure; the capture
// (handle plus timestamp) escapes to the heap on every call.
//
//fpvet:hotpath
func RecordDeferred(h *statHistogram) {
	t0 := time.Now()
	defer func() { h.observe(time.Since(t0).Nanoseconds()) }() // want hotpathalloc "closure capturing"
}

// RecordLogged reports the sample through a structured logger: the key
// and the value each box into the variadic any slot.
//
//fpvet:hotpath
func RecordLogged(d int64) {
	emit("observed", "latency_ns", d) // want hotpathalloc "call argument" // want hotpathalloc "call argument"
}
