package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one ladder probe) share a trace ID; Parent is the ID of the span
// that caused this one, 0 for a root.
type span struct {
	TraceID int    `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. It is filled from
// one goroutine, after the requests it describes have completed, so
// recording costs the measured path nothing.
type tracer struct {
	spans []span
}

// add records a span and returns its ID. Times are nanoseconds on the
// run's own clock.
func (t *tracer) add(traceID, parent int, name string, startNS, endNS int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{TraceID: traceID, ID: id, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; parts of a child outside the parent count for nothing).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// selfByName averages self time over the spans sharing a name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range spans {
		sum[s.Name] += self[s.ID]
		n[s.Name]++
	}
	for name := range sum {
		sum[name] /= time.Duration(n[name])
	}
	return sum
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
