package fpis

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOptionValidation pins the construction-time rejection of
// inapplicable or contradictory options.
func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	rejected := []struct {
		name string
		do   func() error
	}{
		{"local shards and remote shards", func() error {
			_, err := New(ctx, WithLocalShards(2), WithShards("127.0.0.1:1"))
			return err
		}},
		{"index on remote-shard front", func() error {
			_, err := New(ctx, WithShards("127.0.0.1:1"), WithIndex(0))
			return err
		}},
		{"parallelism on remote-shard front", func() error {
			_, err := New(ctx, WithShards("127.0.0.1:1"), WithParallelism(2))
			return err
		}},
		{"shard timeout without shards", func() error {
			_, err := New(ctx, WithShardTimeout(time.Second))
			return err
		}},
		{"fail-closed without shards", func() error {
			_, err := New(ctx, WithFailClosed())
			return err
		}},
		{"request timeout on local service", func() error {
			_, err := New(ctx, WithRequestTimeout(time.Second))
			return err
		}},
		{"zero local shards", func() error {
			_, err := New(ctx, WithLocalShards(0))
			return err
		}},
		{"empty shard list", func() error {
			_, err := New(ctx, WithShards())
			return err
		}},
		{"negative index fanout", func() error {
			_, err := New(ctx, WithIndex(-1))
			return err
		}},
		{"dial with shards", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithLocalShards(2))
			return err
		}},
		{"dial with index", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithIndex(0))
			return err
		}},
		{"dial with shard timeout", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithShardTimeout(time.Second))
			return err
		}},
		{"dial with parallelism", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithParallelism(2))
			return err
		}},
		{"pool size on local service", func() error {
			_, err := New(ctx, WithPoolSize(2))
			return err
		}},
		{"retry on local service", func() error {
			_, err := New(ctx, WithRetry(RetryPolicy{Attempts: 3}))
			return err
		}},
		{"keepalive on local service", func() error {
			_, err := New(ctx, WithKeepalive(time.Second))
			return err
		}},
		{"hedging without shards", func() error {
			_, err := New(ctx, WithHedging(time.Millisecond))
			return err
		}},
		{"dial with hedging", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithHedging(time.Millisecond))
			return err
		}},
		{"zero pool size", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithPoolSize(0))
			return err
		}},
		{"negative retry attempts", func() error {
			_, err := Dial(ctx, "127.0.0.1:1", WithRetry(RetryPolicy{Attempts: -1}))
			return err
		}},
		{"non-positive hedge delay", func() error {
			_, err := New(ctx, WithLocalShards(2), WithHedging(0))
			return err
		}},
	}
	for _, tc := range rejected {
		if err := tc.do(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestParallelismBoundsLocalShardScans: on a WithLocalShards service
// WithParallelism is each store's scan bound — with GOMAXPROCS at 8 and
// the option at 2, no snapshot of the process ever shows more than two
// scan workers per store.
func TestParallelismBoundsLocalShardScans(t *testing.T) {
	gal, probes := confFixtures(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ctx := context.Background()
	svc, err := New(ctx, WithLocalShards(2), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var items []Enrollment
	for c := 0; c < 8; c++ {
		for i, tpl := range gal {
			items = append(items, Enrollment{ID: fmt.Sprintf("%s-copy%d", confID(i), c), DeviceID: "D0", Template: tpl})
		}
	}
	if err := svc.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	// A scan worker is a goroutine inside matchAll's scan closure (its
	// first, hence func1; a worker past its last entry but not yet gone
	// is not counted). A full stack dump stops the world, so each count
	// is one consistent moment.
	var stop atomic.Bool
	peak := make(chan int)
	go func() {
		buf, most := make([]byte, 1<<20), 0
		for !stop.Load() {
			dump := string(buf[:runtime.Stack(buf, true)])
			most = max(most, strings.Count(dump, "gallery.(*Store).matchAll.func1("))
		}
		peak <- most
	}()
	for i := 0; i < 50; i++ {
		if _, err := svc.Identify(ctx, probes[i%len(probes)], 3); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	switch most := <-peak; {
	case most > 2*2:
		t.Fatalf("saw %d scan workers at once across 2 stores, want at most 2 each", most)
	case most == 0:
		t.Fatal("the sampler never saw a scan worker; the bound went unchecked")
	}
}

// TestRemoteShardedService runs the facade's scatter-gather shape over
// real matchd servers end to end and checks it against the local
// golden ranking.
func TestRemoteShardedService(t *testing.T) {
	gal, probes := confFixtures(t)
	addrs := []string{bootMatchd(t, false), bootMatchd(t, false), bootMatchd(t, false)}
	svc, err := New(context.Background(),
		WithShards(addrs...),
		WithShardTimeout(time.Minute),
		WithRequestTimeout(time.Minute),
		WithDialTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: confID(i), DeviceID: "D0", Template: tpl}
	}
	if err := svc.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != len(gal) || st.Shards != 3 {
		t.Fatalf("stats: %+v", st)
	}
	want := golden(t, gal, probes[0], nil)
	got, stats, err := svc.IdentifyDetailed(ctx, probes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial || stats.ShardsQueried != 3 {
		t.Fatalf("scatter stats: %+v", stats)
	}
	sameCandidates(t, "remote-sharded full ranking", got, want)
	if _, err := svc.Verify(ctx, "nobody", probes[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("verify unknown through remote shards: %v", err)
	}
}

// TestResilienceOptionsEndToEnd exercises the PR 9 knobs against a real
// in-process matchd: pooled connections, retries, keepalive, and hedged
// sharded identification all construct, serve traffic, and return the
// same answers as the plain paths.
func TestResilienceOptionsEndToEnd(t *testing.T) {
	ctx := context.Background()
	addr := bootMatchd(t, false)

	// Dial path: pool, retry, keepalive are remote-connection options.
	svc, err := Dial(ctx, addr,
		WithPoolSize(2),
		WithRetry(RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}),
		WithKeepalive(10*time.Second),
		WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gal, probes := confFixtures(t)
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: confID(i), DeviceID: "D0", Template: tpl}
	}
	if err := svc.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	want := golden(t, gal, probes[0], nil)
	got, err := svc.Identify(ctx, probes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	sameCandidates(t, "pooled+retrying dial client", got, want)

	// Sharded path: hedging composes with local shards and stays
	// bit-identical to the unhedged ranking.
	hedged, err := New(ctx, WithLocalShards(3), WithHedging(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hedged.Close()
	if err := hedged.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	hgot, err := hedged.Identify(ctx, probes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	sameCandidates(t, "hedged sharded identify", hgot, want)

	// Remote shards accept the full knob set at once.
	rs, err := New(ctx, WithShards(addr),
		WithPoolSize(2),
		WithRetry(RetryPolicy{Attempts: 2}),
		WithKeepalive(10*time.Second),
		WithHedging(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Identify(ctx, probes[0], 3); err != nil {
		t.Fatal(err)
	}
}
