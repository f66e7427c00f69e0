package shard

// Hedged-identify tests: a shard whose first answer never comes forces
// the router to re-send the leg after the hedge delay, and the contract
// is (a) the search still succeeds, (b) exactly one attempt's answer is
// used so results are bit-identical to the unhedged path, and (c) the
// fired/won/wasted counters tell the story.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/obs"
)

// laggyBackend stalls its first `slow` IdentifyDetailed calls until the
// context is cancelled — a replica with an infinitely long tail.
type laggyBackend struct {
	Backend
	calls atomic.Int64
	slow  int64

	mu        sync.Mutex
	deadlines []time.Time // each call's context deadline, in arrival order
}

func (b *laggyBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	dl, _ := ctx.Deadline()
	b.mu.Lock()
	b.deadlines = append(b.deadlines, dl)
	b.mu.Unlock()
	if b.calls.Add(1) <= b.slow {
		<-ctx.Done()
		return nil, gallery.IdentifyStats{}, ctx.Err()
	}
	return b.Backend.IdentifyDetailed(ctx, probe, k)
}

// failFastBackend fails IdentifyDetailed immediately.
type failFastBackend struct {
	Backend
}

func (b *failFastBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return nil, gallery.IdentifyStats{}, errors.New("shard down")
}

// hedgeFixtureStores enrolls the shared fixtures through an unhedged
// router so both routers under comparison see identical shard contents.
func hedgeFixtureStores(t *testing.T) (locals []Backend, want func(probe *minutiae.Template) []gallery.Candidate) {
	t.Helper()
	gal, _ := fixtures(t)
	locals = []Backend{
		NewLocal("shard-0", gallery.New(nil)),
		NewLocal("shard-1", gallery.New(nil)),
	}
	plain, err := New(locals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
	}
	if err := plain.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	want = func(probe *minutiae.Template) []gallery.Candidate {
		cands, _, err := plain.IdentifyDetailed(ctx, probe, 5)
		if err != nil {
			t.Fatalf("unhedged identify: %v", err)
		}
		return cands
	}
	return locals, want
}

func TestHedgedIdentifyRescuesSlowShardBitIdentical(t *testing.T) {
	locals, want := hedgeFixtureStores(t)
	_, probes := fixtures(t)
	laggy := &laggyBackend{Backend: locals[0], slow: 1}
	reg := obs.NewRegistry()
	hedged, err := New([]Backend{laggy, locals[1]}, Options{
		HedgeDelay:   25 * time.Millisecond,
		ShardTimeout: 10 * time.Second,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, _, err := hedged.IdentifyDetailed(ctx, probes[i], 5)
		if err != nil {
			t.Fatalf("hedged identify %d: %v", i, err)
		}
		if w := want(probes[i]); !reflect.DeepEqual(got, w) {
			t.Errorf("hedged identify %d diverges from unhedged:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if fired := hedged.met.hedgesFired.Value(); fired < 1 {
		t.Fatalf("hedgesFired = %d, want >= 1", fired)
	}
	if won := hedged.met.hedgesWon.Value(); won < 1 {
		t.Fatalf("hedgesWon = %d, want >= 1", won)
	}
	if stalled := laggy.calls.Load(); stalled < 2 {
		t.Fatalf("laggy backend saw %d calls, want the hedge's second attempt", stalled)
	}
}

func TestHedgeWastedWhenPrimaryStillWins(t *testing.T) {
	locals, want := hedgeFixtureStores(t)
	_, probes := fixtures(t)
	reg := obs.NewRegistry()
	// A hedge delay of zero nanoseconds is "off"; use 1ns so the hedge
	// fires on effectively every search while the primary still answers —
	// every fired hedge should be wasted, never change the result.
	hedged, err := New(locals, Options{
		HedgeDelay: time.Nanosecond,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, _, err := hedged.IdentifyDetailed(ctx, probes[i], 5)
		if err != nil {
			t.Fatalf("hedged identify %d: %v", i, err)
		}
		if w := want(probes[i]); !reflect.DeepEqual(got, w) {
			t.Errorf("identify %d with racing hedges diverges:\n got %+v\nwant %+v", i, got, w)
		}
	}
	fired := hedged.met.hedgesFired.Value()
	won := hedged.met.hedgesWon.Value()
	wasted := hedged.met.hedgesWasted.Value()
	if fired != won+wasted {
		t.Fatalf("hedge accounting leaks: fired=%d won=%d wasted=%d", fired, won, wasted)
	}
}

func TestHedgeDoesNotFireOnFastFailure(t *testing.T) {
	locals, _ := hedgeFixtureStores(t)
	_, probes := fixtures(t)
	reg := obs.NewRegistry()
	hedged, err := New([]Backend{&failFastBackend{Backend: locals[0]}, locals[1]}, Options{
		HedgeDelay: 2 * time.Second,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	// SkipDegraded: the healthy shard still answers.
	if _, _, err := hedged.IdentifyDetailed(ctx, probes[0], 5); err != nil {
		t.Fatalf("identify with one failing shard: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("fast failure waited %v; must not sit out the hedge delay", elapsed)
	}
	if fired := hedged.met.hedgesFired.Value(); fired != 0 {
		t.Fatalf("hedgesFired = %d on an immediately-failing shard, want 0", fired)
	}
}

// TestShardTimeoutBoundsHedgedLeg: the per-shard deadline is derived
// once per leg, so a shard that never answers holds the search for
// ShardTimeout — not for HedgeDelay + ShardTimeout, which is what a
// fresh deadline per attempt costs once the hedge has fired — and the
// hedge attempt is told the same deadline as the first, not a full new
// budget.
func TestShardTimeoutBoundsHedgedLeg(t *testing.T) {
	locals, want := hedgeFixtureStores(t)
	_, probes := fixtures(t)
	const (
		shardTimeout = 200 * time.Millisecond
		hedgeDelay   = 150 * time.Millisecond
	)
	stuck := &laggyBackend{Backend: locals[0], slow: math.MaxInt64}
	hedged, err := New([]Backend{stuck, locals[1]}, Options{
		ShardTimeout: shardTimeout,
		HedgeDelay:   hedgeDelay,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, stats, err := hedged.IdentifyDetailed(ctx, probes[0], 5)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("identify around a stuck shard: %v", err)
	}
	if elapsed >= shardTimeout+hedgeDelay/2 {
		t.Fatalf("search held for %v by a stuck hedged leg, want ~ShardTimeout (%v)", elapsed, shardTimeout)
	}
	if stats.ShardsFailed != 1 || !stats.Partial {
		t.Fatalf("stuck shard not counted failed: %+v", stats)
	}
	if fired := hedged.met.hedgesFired.Value(); fired != 1 {
		t.Fatalf("hedgesFired = %d, want 1", fired)
	}
	if fails := hedged.health[0].fails.Load(); fails != 1 {
		t.Fatalf("stuck shard charged %d failures, want 1", fails)
	}
	// The healthy shard's candidates are served: the unhedged reference
	// restricted to what shard 1 holds.
	var served []gallery.Candidate
	for _, c := range want(probes[0]) {
		if hedged.Owner(c.ID) == 1 {
			served = append(served, c)
		}
	}
	if len(served) == 0 || len(got) < len(served) || !reflect.DeepEqual(got[:len(served)], served) {
		t.Fatalf("healthy shard's candidates not served:\n got %+v\nwant prefix %+v", got, served)
	}
	stuck.mu.Lock()
	deadlines := append([]time.Time(nil), stuck.deadlines...)
	stuck.mu.Unlock()
	if len(deadlines) != 2 {
		t.Fatalf("stuck shard saw %d attempts, want the first and the hedge", len(deadlines))
	}
	if !deadlines[0].Equal(deadlines[1]) || deadlines[0].IsZero() {
		t.Fatalf("attempts carried deadlines %v and %v, want the leg's one deadline on both", deadlines[0], deadlines[1])
	}
	// Run on its own, the stuck leg is named ErrShardTimeout and charged
	// once more: one failure per leg, however many attempts it made.
	if ans := hedged.leg(ctx, 0, probes[0], 5); !errors.Is(ans.err, ErrShardTimeout) {
		t.Fatalf("stuck shard's leg reports %v, want %v", ans.err, ErrShardTimeout)
	}
	if fails := hedged.health[0].fails.Load(); fails != 2 {
		t.Fatalf("stuck shard charged %d failures after two legs, want 2", fails)
	}
}

// scriptedFailBackend fails its calls with the scripted errors, in
// arrival order; the first call waits for the second to arrive, so both
// attempts of a hedged leg are in flight when either fails.
type scriptedFailBackend struct {
	Backend
	calls  atomic.Int64
	second chan struct{}
}

func (b *scriptedFailBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	if b.calls.Add(1) == 1 {
		select {
		case <-b.second:
		case <-ctx.Done():
			return nil, gallery.IdentifyStats{}, ctx.Err()
		}
		return nil, gallery.IdentifyStats{}, errors.New("first attempt failed")
	}
	defer close(b.second)
	return nil, gallery.IdentifyStats{}, errors.New("hedge attempt failed")
}

// TestHedgeTwoFailuresReportFirstAttempt: with both attempts in flight
// one failure waits for the other, and when both fail the leg reports
// the first attempt's error whichever failed first — which a FailClosed
// router returns as the search's error.
func TestHedgeTwoFailuresReportFirstAttempt(t *testing.T) {
	locals, _ := hedgeFixtureStores(t)
	_, probes := fixtures(t)
	failing := &scriptedFailBackend{Backend: locals[0], second: make(chan struct{})}
	hedged, err := New([]Backend{failing, locals[1]}, Options{
		HedgeDelay: 10 * time.Millisecond,
		Policy:     FailClosed,
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = hedged.IdentifyDetailed(ctx, probes[0], 5)
	if want := fmt.Sprintf("shard %q: first attempt failed", failing.Name()); err == nil || err.Error() != want {
		t.Fatalf("search reports %v, want the first attempt's error %q", err, want)
	}
	if calls := failing.calls.Load(); calls != 2 {
		t.Fatalf("failing shard saw %d attempts, want 2", calls)
	}
	if fails := hedged.health[0].fails.Load(); fails != 1 {
		t.Fatalf("two failed attempts of one leg charged %d failures, want 1", fails)
	}
}

// replicaSetBackend fakes a two-member replica set: member 0 stalls
// identifies until cancelled, member 1 answers from the embedded
// backend. It records the avoid constraint of every attempt so a test
// can prove the hedge was steered away from the first attempt's member.
type replicaSetBackend struct {
	Backend
	mu     sync.Mutex
	avoids []int
	served []int
}

func (b *replicaSetBackend) Replicas() int { return 2 }

func (b *replicaSetBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return b.IdentifyDetailedAvoiding(ctx, probe, k, -1, nil)
}

func (b *replicaSetBackend) IdentifyDetailedAvoiding(ctx context.Context, probe *minutiae.Template, k int, avoid int, picked chan<- int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	member := 0
	if avoid == 0 {
		member = 1
	}
	b.mu.Lock()
	b.avoids = append(b.avoids, avoid)
	b.served = append(b.served, member)
	b.mu.Unlock()
	if picked != nil {
		select {
		case picked <- member:
		default:
		}
	}
	if member == 0 {
		// The stalled member: pins the first attempt until the caller
		// gives up, like a replica wedged mid-GC.
		<-ctx.Done()
		return nil, gallery.IdentifyStats{}, ctx.Err()
	}
	return b.Backend.IdentifyDetailed(ctx, probe, k)
}

// TestHedgeAvoidsOriginatingReplica is the regression test for hedges
// that re-ask the machine the stalled first attempt is already waiting
// on: with a replica-capable backend, the hedge leg must carry the
// first attempt's member as avoid and be served by a different member.
func TestHedgeAvoidsOriginatingReplica(t *testing.T) {
	locals, want := hedgeFixtureStores(t)
	_, probes := fixtures(t)
	rsb := &replicaSetBackend{Backend: locals[0]}
	reg := obs.NewRegistry()
	hedged, err := New([]Backend{rsb, locals[1]}, Options{
		HedgeDelay:   25 * time.Millisecond,
		ShardTimeout: 10 * time.Second,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := hedged.IdentifyDetailed(ctx, probes[0], 5)
	if err != nil {
		t.Fatalf("hedged identify over a replica set: %v", err)
	}
	if w := want(probes[0]); !reflect.DeepEqual(got, w) {
		t.Errorf("replica-hedged identify diverges:\n got %+v\nwant %+v", got, w)
	}
	rsb.mu.Lock()
	avoids, served := append([]int(nil), rsb.avoids...), append([]int(nil), rsb.served...)
	rsb.mu.Unlock()
	if len(avoids) < 2 {
		t.Fatalf("replica backend saw %d attempts, want the primary and the hedge", len(avoids))
	}
	if avoids[0] != -1 {
		t.Fatalf("first attempt carried avoid=%d, want unconstrained (-1)", avoids[0])
	}
	if avoids[1] != 0 {
		t.Fatalf("hedge attempt carried avoid=%d, want the first attempt's member 0", avoids[1])
	}
	if served[1] != 1 {
		t.Fatalf("hedge served by member %d, want the other member 1", served[1])
	}
	if won := hedged.met.hedgesWon.Value(); won < 1 {
		t.Fatalf("hedgesWon = %d, want the steered hedge to win", won)
	}
}

func TestHedgeDelayAdaptsToObservedP95(t *testing.T) {
	reg := obs.NewRegistry()
	backends := []Backend{
		NewLocal("shard-0", gallery.New(nil)),
		NewLocal("shard-1", gallery.New(nil)),
	}
	r, err := New(backends, Options{HedgeDelay: 500 * time.Millisecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := r.health[0]
	if h.met == nil {
		t.Fatal("metered router should anchor shard metrics on health")
	}
	// Below the sample floor the static option rules.
	if d := r.hedgeDelay(h); d != 500*time.Millisecond {
		t.Fatalf("pre-history hedge delay = %v, want the static 500ms", d)
	}
	// Feed fast-latency history; the delay must adapt to the observed
	// p95 instead of the (much larger) static option.
	for i := 0; i < 2*hedgeMinSamples; i++ {
		h.met.lat.Observe(int64(2 * time.Millisecond))
	}
	d := r.hedgeDelay(h)
	if d <= 0 || d >= 500*time.Millisecond {
		t.Fatalf("adapted hedge delay = %v, want an observed-p95-scale value", d)
	}
}
