package shard

// End-to-end scatter-gather smoke: three real matchd-style servers on
// loopback TCP, a router over remote backends, batched enrollment, and
// the rank-1 equivalence guarantee against a single in-process store.
// FPINTEROP_SHARD_SMOKE_SUBJECTS scales the population (CI runs 1000;
// the default keeps `go test ./...` quick).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
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

func smokeSubjects() int {
	if v := os.Getenv("FPINTEROP_SHARD_SMOKE_SUBJECTS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 48
}

// bootShard starts one matchsvc server over a fresh store and returns a
// remote backend connected to it.
func bootShard(t *testing.T, name string) *Remote {
	t.Helper()
	return bootServer(t, name, matchsvc.NewServer(gallery.New(nil), nil))
}

// bootServer serves srv on loopback for the life of the test and
// returns a remote backend connected to it.
func bootServer(t *testing.T, name string, srv *matchsvc.Server) *Remote {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	cli := dialT(t, addr)
	t.Cleanup(func() { cli.Close() })
	// Identification over a large shard can take a while; no per-request
	// deadline here (the router's ShardTimeout is the knob for that).
	return NewRemote(name, cli)
}

func TestShardSmoke(t *testing.T) {
	n := smokeSubjects()
	probeCount := 8
	if probeCount > n {
		probeCount = n
	}
	t.Logf("shard smoke: %d subjects across 3 TCP shards, %d probes", n, probeCount)

	cohort := population.NewCohort(rng.New(6241), population.CohortOptions{Size: n})
	d0, _ := sensor.ProfileByID("D0")
	single := gallery.New(nil)
	items := make([]Enrollment, n)
	for i, subj := range cohort.Subjects {
		imp, err := d0.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Shipping to a remote shard quantizes the template through the
		// wire codec; normalize first so the single store scores the
		// byte-identical templates the shards hold.
		data, err := minutiae.Marshal(imp.Template)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := minutiae.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		id := subjectID(i)
		items[i] = Enrollment{ID: id, DeviceID: "D0", Template: norm}
		if err := single.Enroll(id, "D0", norm); err != nil {
			t.Fatal(err)
		}
	}

	backends := make([]Backend, 3)
	for i := range backends {
		backends[i] = bootShard(t, fmt.Sprintf("shard-%d", i))
	}
	router, err := New(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	if got := router.Len(ctx); got != n {
		t.Fatalf("router Len = %d, want %d", got, n)
	}
	for i, b := range backends {
		ln, err := b.Len(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ln == 0 {
			t.Fatalf("shard %d received no enrollments", i)
		}
		t.Logf("shard %d: %d enrollments", i, ln)
	}

	for p := 0; p < probeCount; p++ {
		imp, err := d0.CaptureSubject(cohort.Subjects[p], 1, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The probe crosses the wire too; normalize it the same way.
		data, err := minutiae.Marshal(imp.Template)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := minutiae.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		imp.Template = probe
		want, err := single.IdentifyContext(ctx, imp.Template, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := router.IdentifyDetailed(ctx, imp.Template, 5)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Partial || stats.ShardsQueried != 3 {
			t.Fatalf("probe %d: partial coverage: %+v", p, stats)
		}
		if len(got) == 0 || len(want) == 0 {
			t.Fatalf("probe %d: empty candidates (sharded %d, single %d)", p, len(got), len(want))
		}
		if got[0].ID != want[0].ID {
			t.Fatalf("probe %d: sharded rank-1 %q != single-store rank-1 %q", p, got[0].ID, want[0].ID)
		}
		if got[0].ID != subjectID(p) {
			t.Fatalf("probe %d: rank-1 %q, want mate %q", p, got[0].ID, subjectID(p))
		}
		for c := range want {
			if c < len(got) && got[c] != want[c] {
				t.Fatalf("probe %d: candidate %d diverged: %+v vs %+v", p, c, got[c], want[c])
			}
		}
	}
}
