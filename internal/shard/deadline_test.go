package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/wal"
)

// setProcs sets GOMAXPROCS — a store's scan worker count — to n for
// the rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// slowMatcher counts comparisons as they start; each takes 10 ms.
type slowMatcher struct{ started atomic.Int64 }

func (m *slowMatcher) Match(g, p *minutiae.Template) (match.Result, error) {
	m.started.Add(1)
	time.Sleep(10 * time.Millisecond)
	return match.Result{Score: 0.5}, nil
}

// TestDeadlineSurvivesTwoHops: client → front server → shard server.
// The caller's 50 ms reaches the shard as a wire budget on each hop, so
// the shard's exhaustive scan (1 s if left alone) is cancelled, and
// because every hop knows the failure is its caller giving up, nobody's
// health tracker charges anybody — not the front's for the shard, not
// the caller's for the front — even after a threshold's worth of them.
func TestDeadlineSurvivesTwoHops(t *testing.T) {
	gal, probes := fixtures(t)
	m := &slowMatcher{}
	setProcs(t, 2)
	store := gallery.New(m)
	const entries = 200
	for i := 0; i < entries; i++ {
		if err := store.Enroll(subjectID(i), "D0", gal[i%len(gal)]); err != nil {
			t.Fatal(err)
		}
	}
	shard := bootServer(t, "shard", matchsvc.NewServer(store, nil))
	front, err := New([]Backend{shard}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	caller, err := New([]Backend{bootServer(t, "front", matchsvc.NewBackendServer(front, nil))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // past the failure threshold of 3
		dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, st, err := caller.IdentifyDetailed(dctx, probes[0], 0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("identify %d under a 50ms deadline: %v (%+v), want DeadlineExceeded", i, err, st)
		}
		atReturn := m.started.Load()
		time.Sleep(100 * time.Millisecond) // ten comparisons' worth
		if ran := m.started.Load() - atReturn; ran > 2 {
			t.Fatalf("identify %d: the shard ran %d comparisons after the caller's deadline, want at most one per scan worker (2)", i, ran)
		}
	}
	if total := m.started.Load(); total >= entries {
		t.Fatalf("the shard ran %d comparisons over four 50ms searches of a %d-entry gallery: some scan was never cancelled", total, entries)
	}
	if deg := front.Degraded(); len(deg) != 0 {
		t.Fatalf("the front charged its shard for the caller's deadlines: degraded = %v", deg)
	}
	if deg := caller.Degraded(); len(deg) != 0 {
		t.Fatalf("the caller charged the front for its own deadlines: degraded = %v", deg)
	}
	// And the path still works: a patient caller gets the full ranking.
	got, _, err := caller.IdentifyDetailed(ctx, probes[0], 0)
	if err != nil || len(got) != entries {
		t.Fatalf("unbounded identify after the deadlines: %d candidates, %v", len(got), err)
	}
}

// TestWireBatchDuplicateSemantics pins what a wire batch with a
// duplicate in the middle leaves behind, per served backend: the whole
// frame reaches the backend as one EnrollBatch, so a plain store keeps
// the prefix, a WAL store commits the frame atomically — nothing — and
// a router front lands whole per-shard groups and names the shard that
// refused.
func TestWireBatchDuplicateSemantics(t *testing.T) {
	gal, _ := fixtures(t)
	batch := make([]Enrollment, 6)
	for i := range batch {
		batch[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: gal[i]}
	}
	batch[3].ID = subjectID(0) // a duplicate in the middle

	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	a, b := NewLocal("shard-a", gallery.New(nil)), NewLocal("shard-b", gallery.New(nil))
	router, err := New([]Backend{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dupOwner := router.Backends()[router.Owner(subjectID(0))].(*Local)
	other := a
	if dupOwner == a {
		other = b
	}
	otherItems := 0
	for _, it := range batch {
		if router.Backends()[router.Owner(it.ID)] == Backend(other) {
			otherItems++
		}
	}

	cases := []struct {
		name   string
		srv    *matchsvc.Server
		left   int    // enrollments the failed batch leaves behind
		naming string // what the error must mention
	}{
		{"plain store keeps the prefix", matchsvc.NewServer(gallery.New(nil), nil), 3, subjectID(0)},
		{"WAL store keeps nothing", matchsvc.NewServer(ws, nil), 0, subjectID(0)},
		{"front keeps the other shard's group and names the failing shard",
			matchsvc.NewBackendServer(router, nil), -1, fmt.Sprintf("shard %q", dupOwner.Name())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			remote := bootServer(t, "served", tc.srv)
			err := remote.EnrollBatch(ctx, batch)
			if !errors.Is(err, gallery.ErrDuplicate) {
				t.Fatalf("batch with a duplicate: %v, want ErrDuplicate", err)
			}
			if !strings.Contains(err.Error(), tc.naming) {
				t.Fatalf("error %q does not mention %s", err, tc.naming)
			}
			got, lerr := remote.Len(ctx)
			if lerr != nil {
				t.Fatal(lerr)
			}
			if tc.left >= 0 && got != tc.left {
				t.Fatalf("failed batch left %d enrollments, want %d", got, tc.left)
			}
			if tc.left < 0 {
				// The shard that did not hold the duplicate landed its whole
				// group; the failing shard kept the prefix of its own.
				if n := other.Store.Len(); n != otherItems {
					t.Fatalf("%s holds %d enrollments, want its whole group of %d", other.Name(), n, otherItems)
				}
				if n := dupOwner.Store.Len(); n >= len(batch)-otherItems {
					t.Fatalf("%s holds %d enrollments, want fewer than its group of %d", dupOwner.Name(), n, len(batch)-otherItems)
				}
			}
		})
	}
}

// ackAfter is a shard whose writes outlive their caller: it sleeps past
// any short deadline without watching ctx, as an fsync that cannot be
// cancelled does, then commits and acknowledges (or, with fail set,
// fails).
type ackAfter struct {
	Backend
	delay time.Duration
	fail  bool
}

func (a *ackAfter) EnrollBatch(ctx context.Context, items []Enrollment) error {
	time.Sleep(a.delay)
	if a.fail {
		return errors.New("injected failure")
	}
	return a.Backend.EnrollBatch(context.WithoutCancel(ctx), items)
}

// TestEnrollBatchAcknowledgedPastDeadline: a write every target shard
// acknowledged is a success even when the caller's deadline passed
// while the shards worked — reporting it as failed would make the
// caller's retry answer ErrDuplicate for its own durable write. Only a
// batch some shard failed reports the caller's ctx.Err().
func TestEnrollBatchAcknowledgedPastDeadline(t *testing.T) {
	gal, _ := fixtures(t)
	for _, fail := range []bool{false, true} {
		slow := &ackAfter{Backend: NewLocal("slow", gallery.New(nil)), delay: 30 * time.Millisecond, fail: fail}
		r, err := New([]Backend{slow}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
		err = r.EnrollBatch(dctx, []Enrollment{{ID: subjectID(0), DeviceID: "D0", Template: gal[0]}})
		cancel()
		switch {
		case !fail && err != nil:
			t.Fatalf("acknowledged enrollment past the deadline: %v, want nil", err)
		case fail && !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("failed enrollment past the deadline: %v, want DeadlineExceeded", err)
		}
		want := 1
		if fail {
			want = 0
		}
		if n, _ := slow.Len(ctx); n != want {
			t.Fatalf("fail=%v: shard holds %d enrollments, want %d", fail, n, want)
		}
	}
}

// TestCoverageSurvivesAHop: client → front server → two shard servers,
// one of them stopped. The front answers SkipDegraded from the live
// shard and reports its coverage on the wire, and the router a hop up
// sums it: both stores queried, one failed, the answer partial — not
// one healthy shard. The front's answer is no failure of the front's,
// so the caller charges it nothing.
func TestCoverageSurvivesAHop(t *testing.T) {
	gal, probes := fixtures(t)
	live := bootServer(t, "live", matchsvc.NewServer(gallery.New(nil), nil))
	stoppedSrv := matchsvc.NewServer(gallery.New(nil), nil)
	front, err := New([]Backend{live, bootServer(t, "stopped", stoppedSrv)}, Options{Policy: SkipDegraded})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Enrollment, 12)
	for i := range items {
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: gal[i]}
	}
	if err := front.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	caller, err := New([]Backend{bootServer(t, "front", matchsvc.NewBackendServer(front, nil))}, Options{Policy: SkipDegraded})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := live.IdentifyDetailed(ctx, probes[0], 0)
	if err != nil || len(want) == 0 || len(want) == len(items) {
		t.Fatalf("live shard holds %d of %d enrollments (%v); the test needs both shards populated", len(want), len(items), err)
	}

	stoppedSrv.Close()
	got, st, err := caller.IdentifyDetailed(ctx, probes[0], 0)
	if err != nil {
		t.Fatalf("identify around a stopped shard one hop down: %v", err)
	}
	if st.ShardsQueried != 2 || st.ShardsSkipped != 0 || st.ShardsFailed != 1 || !st.Partial {
		t.Fatalf("coverage one hop up: %+v, want 2 queried, 1 failed, partial", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates one hop up:\n got %+v\nwant the live shard's %+v", got, want)
	}
	if deg := caller.Degraded(); len(deg) != 0 {
		t.Fatalf("a partial answer degraded the front: %v", deg)
	}
}
