package fpis

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/shard"
	"fpinterop/internal/topology"
)

// sinkAddr listens on loopback, counting and closing every connection
// it accepts, and fails the test at cleanup if there was any. A
// construction that validation must reject points at it, so a missing
// check shows as a connection instead of hiding behind a refused dial.
func sinkAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		if n := accepted.Load(); n != 0 {
			t.Errorf("validation let %d connection(s) through to %s", n, ln.Addr())
		}
	})
	return ln.Addr().String()
}

// TestOptionValidation pins the construction-time rejection of
// out-of-range, inapplicable or contradictory options, each before
// anything is dialed, and the acceptance of zero values as the no-ops
// they read as.
func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	newSvc := func(opts ...Option) error {
		svc, err := New(ctx, opts...)
		if err == nil {
			svc.Close()
		}
		return err
	}
	dial := func(addr string, opts ...Option) error {
		svc, err := Dial(ctx, addr, opts...)
		if err == nil {
			svc.Close()
		}
		return err
	}
	rejected := map[string]func(sink string) error{
		"local shards and remote shards": func(sink string) error { return newSvc(WithLocalShards(2), WithShards(sink)) },
		"index on remote-shard front":    func(sink string) error { return newSvc(WithShards(sink), WithIndex(0)) },
		"parallelism on a front":         func(sink string) error { return newSvc(WithShards(sink), WithParallelism(2)) },
		"shard timeout without shards":   func(string) error { return newSvc(WithShardTimeout(time.Second)) },
		"fail-closed without shards":     func(string) error { return newSvc(WithFailClosed()) },
		"request timeout, local service": func(string) error { return newSvc(WithRequestTimeout(time.Second)) },
		"zero local shards":              func(string) error { return newSvc(WithLocalShards(0)) },
		"empty shard list":               func(string) error { return newSvc(WithShards()) },
		"negative index fanout":          func(string) error { return newSvc(WithIndex(-1)) },
		"negative shard timeout":         func(string) error { return newSvc(WithLocalShards(2), WithShardTimeout(-1)) },
		"negative hedge delay":           func(string) error { return newSvc(WithLocalShards(2), WithHedging(-1)) },
		"pool size, local service":       func(string) error { return newSvc(WithPoolSize(2)) },
		"retry, local service":           func(string) error { return newSvc(WithRetry(RetryPolicy{Attempts: 3})) },
		"keepalive, local service":       func(string) error { return newSvc(WithKeepalive(time.Second)) },
		"hedging without shards":         func(string) error { return newSvc(WithHedging(time.Millisecond)) },
		"dial with shards":               func(sink string) error { return dial(sink, WithLocalShards(2)) },
		"dial with index":                func(sink string) error { return dial(sink, WithIndex(0)) },
		"dial with shard timeout":        func(sink string) error { return dial(sink, WithShardTimeout(time.Second)) },
		"dial with parallelism":          func(sink string) error { return dial(sink, WithParallelism(2)) },
		"dial with hedging":              func(sink string) error { return dial(sink, WithHedging(time.Millisecond)) },
		"dial with fail-closed":          func(sink string) error { return dial(sink, WithFailClosed()) },
		"negative pool size, dial":       func(sink string) error { return dial(sink, WithPoolSize(-1)) },
		"negative pool size, front":      func(sink string) error { return newSvc(WithShards(sink), WithPoolSize(-1)) },
		"negative retry attempts, dial":  func(sink string) error { return dial(sink, WithRetry(RetryPolicy{Attempts: -1})) },
		"negative retry delay, front": func(sink string) error {
			return newSvc(WithShards(sink), WithRetry(RetryPolicy{Attempts: 2, MaxDelay: -1}))
		},
		"negative request timeout, dial":  func(sink string) error { return dial(sink, WithRequestTimeout(-1)) },
		"negative request timeout, front": func(sink string) error { return newSvc(WithShards(sink), WithRequestTimeout(-1)) },
		"negative dial timeout, front":    func(sink string) error { return newSvc(WithShards(sink), WithDialTimeout(-1)) },
	}
	for name, do := range rejected {
		t.Run(name, func(t *testing.T) {
			if err := do(sinkAddr(t)); err == nil {
				t.Error("accepted")
			}
		})
	}

	addr := bootMatchd(t, false)
	accepted := map[string]func() error{
		"zero pool size, dial":      func() error { return dial(addr, WithPoolSize(0)) },
		"zero hedge delay, sharded": func() error { return newSvc(WithLocalShards(2), WithHedging(0)) },
		"router zeros on a dial": func() error {
			return dial(addr, WithHedging(0), WithShardTimeout(0), WithParallelism(0), WithWALCompactEvery(0))
		},
		"client zeros, local service": func() error {
			return newSvc(WithPoolSize(0), WithRequestTimeout(0), WithDialTimeout(0), WithKeepalive(0))
		},
	}
	for name, do := range accepted {
		if err := do(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestOptionsSetOneField: every option writes exactly the field of the
// deployment description that the matching matchd flag fills, and
// nothing else, so the library and the daemon describe a deployment in
// one vocabulary.
func TestOptionsSetOneField(t *testing.T) {
	reg := obs.NewRegistry()
	retry := RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second}
	type tc = topology.Config
	for _, c := range []struct {
		name string
		opt  Option
		want tc
	}{
		{"WithIndex: -index, -index-fanout", WithIndex(7), tc{Index: true, IndexFanout: 7}},
		{"WithWAL: -wal-dir", WithWAL("d"), tc{WALDir: "d"}},
		{"WithWALCompactEvery: -compact-every", WithWALCompactEvery(8), tc{CompactEvery: 8}},
		{"WithLocalShards: -local-shards", WithLocalShards(3), tc{LocalShards: 3}},
		{"WithShards: -shards", WithShards("a:1", "b:1"), tc{Shards: []string{"a:1", "b:1"}}},
		{"WithReplicas: -replicas", WithReplicas([]string{"r:1"}, nil), tc{Replicas: [][]string{{"r:1"}, nil}}},
		{"WithParallelism", WithParallelism(2), tc{Parallelism: 2}},
		{"WithShardTimeout: -shard-timeout", WithShardTimeout(time.Second), tc{ShardTimeout: time.Second}},
		{"WithHedging: -hedge-delay", WithHedging(time.Millisecond), tc{HedgeDelay: time.Millisecond}},
		{"WithFailClosed", WithFailClosed(), tc{Policy: shard.FailClosed}},
		{"WithRequestTimeout", WithRequestTimeout(time.Second), tc{Client: matchsvc.ClientOptions{RequestTimeout: time.Second}}},
		{"WithDialTimeout", WithDialTimeout(time.Second), tc{Client: matchsvc.ClientOptions{RedialTimeout: time.Second}}},
		{"WithPoolSize: -pool-size", WithPoolSize(4), tc{Client: matchsvc.ClientOptions{PoolSize: 4}}},
		{"WithRetry: -retry", WithRetry(retry), tc{Client: matchsvc.ClientOptions{Retry: retry}}},
		{"WithKeepalive: -keepalive", WithKeepalive(-1), tc{Client: matchsvc.ClientOptions{Keepalive: -1}}},
		{"WithMetrics: -metrics-addr", WithMetrics(reg), tc{Metrics: reg}},
	} {
		got, err := buildConfig([]Option{c.opt})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: set %+v, want %+v", c.name, got, c.want)
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
