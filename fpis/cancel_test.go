package fpis

// Mid-flight cancellation at the facade level: an in-flight Identify
// must unblock with ctx.Err() well before the search would complete,
// on every deployment shape, and the service must remain usable
// afterward.

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/shard"
	"fpinterop/internal/topology"
)

// slowShard wraps a Backend and pins IdentifyDetailed until the
// configured delay elapses or the context is cancelled — a
// deterministic stand-in for a large gallery's scan time.
type slowShard struct {
	shard.Backend
	mu    sync.Mutex
	delay time.Duration
}

func (s *slowShard) setDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay = d
}

func (s *slowShard) IdentifyDetailed(ctx context.Context, probe *Template, k int) ([]Candidate, gallery.IdentifyStats, error) {
	s.mu.Lock()
	d := s.delay
	s.mu.Unlock()
	if d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, gallery.IdentifyStats{}, ctx.Err()
		}
	}
	return s.Backend.IdentifyDetailed(ctx, probe, k)
}

// TestShardedIdentifyCancellationMidFlight is the acceptance check for
// cancellation plumbing: with one shard pinned far beyond any
// plausible test budget, cancelling the caller's context unblocks the
// scatter within milliseconds, returns ctx.Err(), leaks no workers,
// and leaves the service healthy for the next search.
func TestShardedIdentifyCancellationMidFlight(t *testing.T) {
	gal, probes := confFixtures(t)
	slow := &slowShard{Backend: shard.NewLocal("slow", gallery.New(nil)), delay: 30 * time.Second}
	backends := []shard.Backend{shard.NewLocal("fast", gallery.New(nil)), slow}
	router, err := shard.New(backends, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := Service(topologyService(&topology.Topology{Backend: shard.Front{Router: router}, Router: router}, nil))
	defer svc.Close()
	ctx := context.Background()
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: confID(i), DeviceID: "D0", Template: tpl}
	}
	if err := svc.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(40 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = svc.IdentifyDetailed(cctx, probes[0], 3)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The slow shard would hold the search for 30s; cancellation must
	// beat that by orders of magnitude.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled identify returned after %v", elapsed)
	}
	// Abandoned scatter workers drain.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("worker leak: %d goroutines before, %d after", before, now)
	}
	// Cancellation is not a shard failure: nothing degraded, and the
	// service keeps serving once the slowdown clears.
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DegradedShards) != 0 {
		t.Fatalf("cancellation degraded shards: %+v", st)
	}
	slow.setDelay(0)
	got, stats, err := svc.IdentifyDetailed(ctx, probes[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial || stats.ShardsQueried != 2 || len(got) != 3 {
		t.Fatalf("service unhealthy after cancellation: %d candidates, stats %+v", len(got), stats)
	}
}

// TestLocalIdentifyDeadlineBoundsScan drives the local implementation
// with an already-expired deadline: the scan must not start.
func TestLocalIdentifyDeadlineBoundsScan(t *testing.T) {
	gal, probes := confFixtures(t)
	svc, err := New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for i, tpl := range gal {
		if err := svc.Enroll(ctx, confID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	dctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := svc.Identify(dctx, probes[0], 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestRemoteIdentifyCancellationInterruptsWire cancels an identify
// blocked on a server that shakes hands and then goes mute: the wire
// round trip must unblock with ctx.Err() instead of hanging on the read.
func TestRemoteIdentifyCancellationInterruptsWire(t *testing.T) {
	_, probes := confFixtures(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				// The hello frame is 9 bytes; accept version 3 in a bare
				// StatusOK frame, then never answer anything again.
				if _, err := io.ReadFull(conn, buf[:9]); err != nil {
					return
				}
				conn.Write([]byte{0, 0, 0, 4, 0x00, 0, 0, 0, 3})
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	svc, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(40 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = svc.Identify(cctx, probes[0], 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled remote identify returned after %v", elapsed)
	}
}

// TestDialPreCancelledFailsFastWithoutDialing mirrors the matchsvc
// satellite at the facade level: a pre-cancelled construction context
// must not open a connection.
func TestDialPreCancelledFailsFastWithoutDialing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(&accepts, 1)
			conn.Close()
		}
	}()
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dial(pre, ln.Addr().String()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := New(pre, WithShards(ln.Addr().String())); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded new: want context.Canceled, got %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := atomic.LoadInt32(&accepts); n != 0 {
		t.Fatalf("pre-cancelled construction reached the listener %d times", n)
	}
}
