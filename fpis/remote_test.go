package fpis

import (
	"context"
	"errors"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/shard"
)

// bootFront runs an in-process scatter-gather front (a matchsvc server
// over a shard.Router) whose shards are the matchds at leafAddrs, and
// returns the front's address and its router.
func bootFront(t *testing.T, leafAddrs ...string) (string, *shard.Router) {
	t.Helper()
	leaves := make([]shard.Backend, len(leafAddrs))
	for i, addr := range leafAddrs {
		cli, err := matchsvc.DialContext(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		leaves[i] = shard.NewRemote(addr, cli)
	}
	router, err := shard.New(leaves, shard.Options{Policy: shard.SkipDegraded})
	if err != nil {
		t.Fatal(err)
	}
	return serveT(t, matchsvc.NewBackendServer(router, nil)), router
}

// TestCoverageSurvivesDial: Dial → front server → two shard servers,
// one of them stopped. The front serves the live shard's candidates
// and the reply carries its coverage, so the remote facade reports
// both shards queried, one failed and the answer partial — the same
// stats an in-process sharded service would.
func TestCoverageSurvivesDial(t *testing.T) {
	gal, probes := confFixtures(t)
	ctx := context.Background()
	stopped := matchsvc.NewServer(gallery.New(nil), nil)
	liveAddr := bootMatchd(t, false)
	front, _ := bootFront(t, liveAddr, serveT(t, stopped))
	svc, err := Dial(ctx, front, WithRequestTimeout(time.Minute))
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
	live, err := Dial(ctx, liveAddr, WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	want, err := live.Identify(ctx, probes[0], 0)
	if err != nil || len(want) == 0 || len(want) == len(items) {
		t.Fatalf("live shard holds %d of %d enrollments (%v); the test needs both shards populated", len(want), len(items), err)
	}

	stopped.Close()
	got, st, err := svc.IdentifyDetailed(ctx, probes[0], 0)
	if err != nil {
		t.Fatalf("identify around a stopped shard behind the front: %v", err)
	}
	if st.ShardsQueried != 2 || st.ShardsSkipped != 0 || st.ShardsFailed != 1 || !st.Partial {
		t.Fatalf("coverage through Dial: %+v, want 2 queried, 1 failed, partial", st)
	}
	sameCandidates(t, "through Dial", got, want)
}

// TestSentinelsSurviveTwoHops: client → front server → shard server.
// The status byte carries the sentinel across both hops, so errors.Is
// answers the same as on a local service — including for enrollment IDs
// that spell out a sentinel's message, which text matching could never
// tell apart from the real thing.
func TestSentinelsSurviveTwoHops(t *testing.T) {
	gal, probes := confFixtures(t)
	ctx := context.Background()
	front, router := bootFront(t, bootMatchd(t, false))
	svc, err := Dial(ctx, front, WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	notFoundID := "x: " + ErrNotFound.Error()
	duplicateID := "y: " + ErrDuplicate.Error()
	for _, id := range []string{notFoundID, duplicateID} {
		if err := svc.Enroll(ctx, id, "D0", gal[0]); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		do   func(id string) error
		want error
	}{
		{"enroll again", func(id string) error { return svc.Enroll(ctx, id, "D0", gal[1]) }, ErrDuplicate},
		{"batch with a duplicate", func(id string) error {
			return svc.EnrollBatch(ctx, []Enrollment{{ID: "fresh-" + id, DeviceID: "D0", Template: gal[1]}, {ID: id, DeviceID: "D0", Template: gal[1]}})
		}, ErrDuplicate},
		{"verify unknown", func(id string) error { _, err := svc.Verify(ctx, "no-"+id, probes[0]); return err }, ErrNotFound},
		{"remove unknown", func(id string) error { return svc.Remove(ctx, "no-"+id) }, ErrNotFound},
	}
	for _, tc := range cases {
		for _, id := range []string{notFoundID, duplicateID} {
			err := tc.do(id)
			for _, sentinel := range []error{ErrNotFound, ErrDuplicate} {
				if got := errors.Is(err, sentinel); got != (sentinel == tc.want) {
					t.Errorf("%s %q: errors.Is(%v, %v) = %v", tc.name, id, err, sentinel, got)
				}
			}
		}
	}
	// Eight refusals in a row are answers, not faults: the front still
	// considers its one shard healthy.
	if deg := router.Degraded(); len(deg) != 0 {
		t.Fatalf("application refusals degraded shard(s) %v", deg)
	}
}
