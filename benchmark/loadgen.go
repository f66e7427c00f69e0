package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpinterop/fpis"
	"fpinterop/internal/rng"
)

type opKind int

const (
	opIdentify opKind = iota
	opVerify
	opEnroll
	opRemove
)

var opNames = [...]string{"identify", "verify", "enroll", "remove"}

func (k opKind) String() string { return opNames[k] }

// stream is one open-loop arrival process: independent stations
// sending one kind of request at a fixed rate.
type stream struct {
	kind opKind
	rate float64 // requests per second
	// background requests load the system and are checked and audited
	// like any other, but their latencies are not reported.
	background bool
}

// event is one scheduled request, due at an offset from phase start.
type event struct {
	due        time.Duration
	kind       opKind
	background bool
}

// buildSchedule lays every stream out over d and merges them in due
// order: request i of a stream is due at a seeded uniform point inside
// the i-th interval of that stream. The count per stream is therefore
// exactly rate*d, and no two streams stay in step: at a strict fixed
// interval, streams whose rates divide each other meet at the same
// phase every time, and whether an enroll then always or never lands
// behind a search is decided by the seed, not by the server.
func buildSchedule(src *rng.Source, streams []stream, d time.Duration) []event {
	var out []event
	for _, s := range streams {
		if s.rate <= 0 {
			continue
		}
		interval := float64(time.Second) / s.rate
		count := int(s.rate*d.Seconds() + 1e-9)
		for i := 0; i < count; i++ {
			due := time.Duration((float64(i) + src.Float64()) * interval)
			out = append(out, event{due: due, kind: s.kind, background: s.background})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// opResult is one request as the load generator saw it. Times are
// offsets from the start of the measured part of the run.
type opResult struct {
	kind   opKind
	window int
	due    time.Duration // when the schedule wanted it sent (closed loop: when it was sent)
	sent   time.Duration
	done   time.Duration
	probe  int    // index into fixture.probes, identify and verify
	id     string // enroll, remove and verify target
	cands  []fpis.Candidate
	score  float64
	err    error
	wrong  bool // answered, but the output check rejected the answer
	// background: sent as load beside the measured requests.
	background bool
}

func (r *opResult) failed() bool { return r.err != nil || r.wrong }

// latencyMS is measured from the due time: a stall is charged to every
// request that had to wait behind it, not only to the one that stalled.
func (r *opResult) latencyMS() float64 { return float64(r.done-r.due) / float64(time.Millisecond) }

// traffic hands out the inputs of requests in one deterministic
// sequence per kind, shared by all phases of a run.
type traffic struct {
	fx      *fixture
	probes  atomic.Int64
	freshes atomic.Int64
	removes atomic.Int64
}

// prepare fills in the inputs of the next request of the given kind; it
// reports false when the fixture has run out of subjects for it.
func (t *traffic) prepare(r *opResult) bool {
	switch r.kind {
	case opIdentify, opVerify:
		r.probe = int((t.probes.Add(1) - 1) % int64(len(t.fx.probes)))
		if r.kind == opVerify {
			r.id = t.fx.probes[r.probe].mate
			if r.id == "" {
				// A non-enrolled finger is verified against somebody
				// else's enrollment: one that no remove ever targets.
				r.id = subjectID((r.probe % matedSubjects) * t.fx.n / matedSubjects)
			}
		}
	case opEnroll:
		i := int(t.freshes.Add(1) - 1)
		if i >= len(t.fx.fresh) {
			return false
		}
		r.id = t.fx.fresh[i].ID
	case opRemove:
		i := int(t.removes.Add(1) - 1)
		if i >= len(t.fx.removable) {
			return false
		}
		r.id = t.fx.removable[i]
	}
	return true
}

// opTimeout bounds one request: a hung server must fail the run, not
// hang it.
const opTimeout = 60 * time.Second

func (t *traffic) do(ctx context.Context, svc fpis.Service, r *opResult) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	switch r.kind {
	case opIdentify:
		r.cands, r.err = svc.Identify(ctx, t.fx.probes[r.probe].tpl, topK)
	case opVerify:
		res, err := svc.Verify(ctx, r.id, t.fx.probes[r.probe].tpl)
		r.score, r.err = res.Score, err
	case opEnroll:
		r.err = svc.Enroll(ctx, r.id, enrollDevice, t.fx.byID[r.id])
	case opRemove:
		r.err = svc.Remove(ctx, r.id)
	}
}

// spinMargin is how long before its due time a worker stops sleeping
// and yield-spins: time.Sleep alone wakes about a millisecond late on
// this box, which would be charged to the server as latency.
const spinMargin = 2 * time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpen sends one window's schedule open loop: one worker per
// connection pulls the next due request, waits for its due time and
// sends it whether or not earlier requests have returned. Times in the
// results are offsets from clock.
func runOpen(ctx context.Context, svcs []fpis.Service, t *traffic, sched []event, window int, clock time.Time) []opResult {
	start := time.Now()
	offset := start.Sub(clock)
	results := make([]opResult, 0, len(sched))
	for _, ev := range sched {
		r := opResult{kind: ev.kind, due: offset + ev.due, window: window, background: ev.background}
		if t.prepare(&r) {
			results = append(results, r)
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for _, svc := range svcs {
		wg.Add(1)
		go func(svc fpis.Service) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(results) {
					return
				}
				r := &results[i]
				waitUntil(clock.Add(r.due))
				r.sent = time.Since(clock)
				t.do(ctx, svc, r)
				r.done = time.Since(clock)
			}
		}(svc)
	}
	wg.Wait()
	return results
}

// runClosed runs one window of one kind of request closed loop, one
// client per connection, and returns the results with the window's
// measured length.
func runClosed(ctx context.Context, svcs []fpis.Service, t *traffic, kind opKind, d time.Duration, window int, clock time.Time) ([]opResult, time.Duration) {
	var (
		results  []opResult
		wg       sync.WaitGroup
		mu       sync.Mutex
		start    = time.Now()
		deadline = start.Add(d)
	)
	for _, svc := range svcs {
		wg.Add(1)
		go func(svc fpis.Service) {
			defer wg.Done()
			var mine []opResult
			for time.Now().Before(deadline) {
				r := opResult{kind: kind, window: window}
				if !t.prepare(&r) {
					break
				}
				r.sent = time.Since(clock)
				r.due = r.sent
				t.do(ctx, svc, &r)
				r.done = time.Since(clock)
				mine = append(mine, r)
			}
			mu.Lock()
			results = append(results, mine...)
			mu.Unlock()
		}(svc)
	}
	wg.Wait()
	return results, time.Since(start)
}
