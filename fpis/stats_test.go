package fpis

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpinterop/internal/matchsvc"
)

// enrollConf enrolls the first n conformance fixtures.
func enrollConf(t *testing.T, svc Service, n int) {
	t.Helper()
	gal, _ := confFixtures(t)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := svc.Enroll(ctx, confID(i), "D0", gal[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsLocalWAL pins the local backend's WAL aggregation: a fresh
// durable service reports live log bytes, and reopening the same
// directory reports the crash-recovery replay.
func TestStatsLocalWAL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc, err := New(ctx, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	enrollConf(t, svc, 6)
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != 6 || st.Shards != 1 {
		t.Fatalf("stats = %+v, want 6 enrollments on 1 shard", st)
	}
	if st.WAL == nil {
		t.Fatal("durable service reported nil Stats.WAL")
	}
	if st.WAL.LogBytes <= 0 {
		t.Fatalf("LogBytes = %d after 6 logged enrollments", st.WAL.LogBytes)
	}
	if st.WAL.Replayed != 0 || st.WAL.SnapshotEntries != 0 {
		t.Fatalf("fresh WAL reported recovery %+v", st.WAL)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(ctx, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st2, err := svc2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Enrollments != 6 {
		t.Fatalf("recovered %d enrollments, want 6", st2.Enrollments)
	}
	if st2.WAL == nil || st2.WAL.Replayed != 6 {
		t.Fatalf("recovery stats = %+v, want 6 replayed records", st2.WAL)
	}
}

// TestStatsShardedWAL pins the sharded backend's aggregation: WAL
// state sums across every shard's store.
func TestStatsShardedWAL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc, err := New(ctx, WithLocalShards(3), WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	enrollConf(t, svc, 9)
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != 9 || st.Shards != 3 {
		t.Fatalf("stats = %+v, want 9 enrollments on 3 shards", st)
	}
	if st.WAL == nil || st.WAL.LogBytes <= 0 {
		t.Fatalf("sharded durable service reported WAL %+v", st.WAL)
	}
	// The aggregate must equal the sum of the per-shard logs on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("found %d shard logs, want 3", len(matches))
	}
	var sum int64
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		sum += fi.Size()
	}
	if sum != st.WAL.LogBytes {
		t.Fatalf("on-disk log bytes %d != aggregated %d", sum, st.WAL.LogBytes)
	}
}

// TestStatsRemoteRoundTrip pins every Stats field — including the WAL
// summary — across the wire: the server's stats source is authoritative
// and the client must reconstruct it exactly.
func TestStatsRemoteRoundTrip(t *testing.T) {
	srv := matchsvc.NewServer(nil, nil)
	want := matchsvc.ServiceStats{
		Enrollments:    42,
		Shards:         4,
		DegradedShards: []string{"shard-1", "shard-3"},
		Indexed:        true,
		WAL: &matchsvc.WALServiceStats{
			SnapshotEntries: 30,
			Replayed:        12,
			TruncatedBytes:  257,
			TornTails:       1,
			LogBytes:        8192,
		},
	}
	srv.SetStatsFunc(func(context.Context) (matchsvc.ServiceStats, error) { return want, nil })
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

	svc, err := Dial(context.Background(), addr, WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st, err := svc.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != want.Enrollments || st.Shards != want.Shards || !st.Indexed {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if len(st.DegradedShards) != 2 || st.DegradedShards[0] != "shard-1" || st.DegradedShards[1] != "shard-3" {
		t.Fatalf("degraded shards = %v", st.DegradedShards)
	}
	if st.WAL == nil {
		t.Fatal("WAL summary lost in the round trip")
	}
	got := *st.WAL
	if got.SnapshotEntries != 30 || got.Replayed != 12 || got.TruncatedBytes != 257 ||
		got.TornTails != 1 || got.LogBytes != 8192 {
		t.Fatalf("WAL = %+v, want %+v", got, *want.WAL)
	}
}

// TestStatsRemoteDefault pins the stats a plain server — no stats
// source installed — reports: its gallery's enrollment count on one
// shard, no WAL.
func TestStatsRemoteDefault(t *testing.T) {
	addr := bootMatchd(t, false)
	svc, err := Dial(context.Background(), addr, WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	enrollConf(t, svc, 4)
	st, err := svc.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != 4 || st.Shards != 1 || st.Indexed || st.WAL != nil {
		t.Fatalf("default server stats = %+v", st)
	}
}
