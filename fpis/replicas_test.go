package fpis

import (
	"context"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/replica"
	"fpinterop/internal/wal"
)

// dialT connects a test client to addr, bounded so a wedged server
// fails the test instead of hanging it.
func dialT(t testing.TB, addr string) *matchsvc.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cli, err := matchsvc.Dial(ctx, addr, matchsvc.ClientOptions{RedialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return cli
}

func TestWithReplicasValidation(t *testing.T) {
	ctx := context.Background()
	rejected := []struct {
		name string
		do   func(sink string) error
	}{
		{"replicas without shards", func(sink string) error {
			_, err := New(ctx, WithReplicas([]string{sink}))
			return err
		}},
		{"replica slot count mismatch", func(sink string) error {
			_, err := New(ctx, WithShards(sink, sink), WithReplicas([]string{sink}))
			return err
		}},
		{"replicas on dial", func(sink string) error {
			_, err := Dial(ctx, sink, WithReplicas(nil))
			return err
		}},
		{"empty replicas option", func(sink string) error {
			_, err := New(ctx, WithShards(sink), WithReplicas())
			return err
		}},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.do(sinkAddr(t)); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// bootWALMatchd boots a WAL-backed in-process matchd (a valid replica
// sync source) and returns its address plus the store.
func bootWALMatchd(t *testing.T) (string, *wal.Store) {
	t.Helper()
	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	srv := matchsvc.NewServer(ws, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return addr, ws
}

// bootReplicaOf boots a follower of primaryAddr serving a read-only
// gallery on its own listener.
func bootReplicaOf(t *testing.T, primaryAddr string) (string, *replica.Follower) {
	t.Helper()
	cli := dialT(t, primaryAddr)
	t.Cleanup(func() { cli.Close() })
	store := gallery.New(nil)
	f := replica.NewFollower(store, cli, replica.FollowerOptions{Interval: 3 * time.Millisecond})
	srv := matchsvc.NewServer(replica.ReadOnlyGallery{Store: store}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx) }()
	go f.Run(sctx)
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return addr, f
}

// TestReplicatedShardedService runs the full WithShards+WithReplicas
// shape end to end: writes land on primaries, replicas catch up over
// the wire, and identification through the facade matches the local
// golden ranking exactly.
func TestReplicatedShardedService(t *testing.T) {
	ctx := context.Background()
	gal, probes := confFixtures(t)

	paddr, ws := bootWALMatchd(t)
	r1addr, f1 := bootReplicaOf(t, paddr)
	r2addr, f2 := bootReplicaOf(t, paddr)

	svc, err := New(ctx,
		WithShards(paddr),
		WithReplicas([]string{r1addr, r2addr}),
		WithShardTimeout(time.Minute),
		WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: confID(i), DeviceID: "D0", Template: tpl}
	}
	if err := svc.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	// Writes bypass replicas entirely; the primary's WAL acked them.
	if got := ws.Len(); got != len(gal) {
		t.Fatalf("primary holds %d enrollments, want %d", got, len(gal))
	}
	// Replicas converge to the primary's LSN.
	deadline := time.Now().Add(5 * time.Second)
	for f1.LSN() != ws.LSN() || f2.LSN() != ws.LSN() {
		if time.Now().After(deadline) {
			t.Fatalf("replicas stuck at lsn %d/%d, primary at %d", f1.LSN(), f2.LSN(), ws.LSN())
		}
		time.Sleep(3 * time.Millisecond)
	}

	want := golden(t, gal, probes[0], nil)
	// Several identifies so the balancer spreads across members; every
	// answer must match the golden ranking regardless of which member
	// served it.
	for i := 0; i < 6; i++ {
		got, err := svc.Identify(ctx, probes[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCandidates(t, "replicated sharded identify", got, want)
	}
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != len(gal) || st.Shards != 1 {
		t.Fatalf("stats over a replica set: %+v", st)
	}
}
