package fpis

import (
	"context"
	"errors"
	"testing"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/shard"
)

// bootFront runs an in-process scatter-gather front (a matchsvc server
// over a shard.Front) whose one shard is the matchd at leafAddr, and
// returns the front's address and its router.
func bootFront(t *testing.T, leafAddr string) (string, *shard.Router) {
	t.Helper()
	cli, err := matchsvc.DialContext(context.Background(), leafAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	router, err := shard.New([]shard.Backend{shard.NewRemote(leafAddr, cli)}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return serveT(t, matchsvc.NewBackendServer(shard.Front{Router: router}, nil)), router
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
