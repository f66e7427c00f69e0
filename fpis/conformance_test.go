package fpis

// Conformance suite: one scenario matrix — enroll, batch enroll,
// verify, identify (including degenerate k), remove, stats, and
// pre-cancelled contexts — run against every Service implementation
// (local, sharded, remote), with the retrieval index on and off, to
// prove the facade behaves identically regardless of the deployment
// shape behind it.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/topology"
)

const confSubjects = 12

// Captured templates are the expensive fixture; build one shared,
// codec-normalized set (remote enrollment quantizes templates through
// the wire codec, so only normalized templates make local and remote
// scores bit-comparable).
var (
	confOnce   sync.Once
	confGal    []*Template // D0 sample 0, codec-normalized
	confProbes []*Template // D1 sample 1, codec-normalized
	confErr    error
)

func confFixtures(t *testing.T) (gal, probes []*Template) {
	t.Helper()
	confOnce.Do(func() {
		normalize := func(tpl *Template) (*Template, error) {
			data, err := MarshalTemplate(tpl)
			if err != nil {
				return nil, err
			}
			return UnmarshalTemplate(data)
		}
		cohort := population.NewCohort(rng.New(20130515), population.CohortOptions{Size: confSubjects})
		d0, _ := sensor.ProfileByID("D0")
		d1, _ := sensor.ProfileByID("D1")
		for _, s := range cohort.Subjects {
			g, err := d0.CaptureSubject(s, 0, sensor.CaptureOptions{})
			if err != nil {
				confErr = err
				return
			}
			p, err := d1.CaptureSubject(s, 1, sensor.CaptureOptions{})
			if err != nil {
				confErr = err
				return
			}
			gn, err := normalize(g.Template)
			if err != nil {
				confErr = err
				return
			}
			pn, err := normalize(p.Template)
			if err != nil {
				confErr = err
				return
			}
			confGal = append(confGal, gn)
			confProbes = append(confProbes, pn)
		}
	})
	if confErr != nil {
		t.Fatal(confErr)
	}
	return confGal, confProbes
}

func confID(i int) string { return fmt.Sprintf("subject-%04d", i) }

// bootMatchd runs an in-process matchsvc server over a fresh store
// (indexed on demand) and returns its address.
func bootMatchd(t *testing.T, indexed bool) string {
	t.Helper()
	store := gallery.New(nil)
	if indexed {
		if err := store.EnableIndex(gallery.IndexOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return serveT(t, matchsvc.NewServer(store, nil))
}

// serveT serves srv on loopback for the life of the test and returns
// its address.
func serveT(t *testing.T, srv *matchsvc.Server) string {
	t.Helper()
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
	return addr
}

// implementations enumerates the conformance matrix: every Service
// construction path, with and without the retrieval index, plus the
// shape matchd -local-shards serves — a Dial client in front of a
// server over a two-shard router — so the served router is held to the
// same bit-identical rankings as everything else.
type implCase struct {
	name    string
	indexed bool
	shards  int // expected Stats.Shards
	build   func(t *testing.T) Service
}

func implementations(t *testing.T) []implCase {
	var cases []implCase
	for _, indexed := range []bool{false, true} {
		indexed := indexed
		suffix := "/exhaustive"
		if indexed {
			suffix = "/indexed"
		}
		cases = append(cases,
			implCase{
				name: "local" + suffix, indexed: indexed, shards: 1,
				build: func(t *testing.T) Service {
					var opts []Option
					if indexed {
						opts = append(opts, WithIndex(0))
					}
					svc, err := New(context.Background(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					return svc
				},
			},
			implCase{
				name: "sharded" + suffix, indexed: indexed, shards: 3,
				build: func(t *testing.T) Service {
					opts := []Option{WithLocalShards(3), WithShardTimeout(time.Minute)}
					if indexed {
						opts = append(opts, WithIndex(0))
					}
					svc, err := New(context.Background(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					return svc
				},
			},
			implCase{
				name: "remote" + suffix, indexed: indexed, shards: 1,
				build: func(t *testing.T) Service {
					addr := bootMatchd(t, indexed)
					svc, err := Dial(context.Background(), addr,
						WithRequestTimeout(time.Minute), WithDialTimeout(2*time.Second))
					if err != nil {
						t.Fatal(err)
					}
					return svc
				},
			},
		)
	}
	cases = append(cases, implCase{
		// The durable store marshals what it enrolls, so it meets a bad
		// template in a second place.
		name: "local-wal/indexed", indexed: true, shards: 1,
		build: func(t *testing.T) Service {
			svc, err := New(context.Background(), WithWAL(t.TempDir()), WithIndex(0))
			if err != nil {
				t.Fatal(err)
			}
			return svc
		},
	}, implCase{
		// What matchd -local-shards 2 serves: the router over its two
		// stores, with the deployment's stats source, so both the
		// service stats and every search's coverage name two shards
		// from the far side of the wire.
		name: "remote-front/exhaustive", shards: 2,
		build: func(t *testing.T) Service {
			topo, err := topology.Build(context.Background(), topology.Config{LocalShards: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { topo.Close() })
			srv := matchsvc.NewBackendServer(topo.Backend, nil)
			srv.SetStatsFunc(topo.Stats)
			svc, err := Dial(context.Background(), serveT(t, srv),
				WithRequestTimeout(time.Minute), WithDialTimeout(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			return svc
		},
	})
	return cases
}

// golden computes the reference full ranking for a probe with a plain
// exhaustive local store over the fixture gallery minus the removed
// IDs.
func golden(t *testing.T, gal []*Template, probe *Template, removed map[string]bool) []Candidate {
	t.Helper()
	store := gallery.New(nil)
	for i, tpl := range gal {
		if removed[confID(i)] {
			continue
		}
		if err := store.Enroll(confID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	out, err := store.IdentifyContext(context.Background(), probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameCandidates(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestServiceConformance runs the full scenario matrix against every
// implementation.
func TestServiceConformance(t *testing.T) {
	gal, probes := confFixtures(t)
	ctx := context.Background()
	fullRank := golden(t, gal, probes[0], nil)
	afterRemove := golden(t, gal, probes[0], map[string]bool{confID(5): true})
	verifyWant := fullRankScoreOf(fullRank, confID(2))

	for _, ic := range implementations(t) {
		ic := ic
		t.Run(ic.name, func(t *testing.T) {
			svc := ic.build(t)
			defer func() {
				if err := svc.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()

			// Enrollment: half through the batch path, half one by one.
			items := make([]Enrollment, 0, confSubjects/2)
			for i := 0; i < confSubjects/2; i++ {
				items = append(items, Enrollment{ID: confID(i), DeviceID: "D0", Template: gal[i]})
			}
			if err := svc.EnrollBatch(ctx, items); err != nil {
				t.Fatal(err)
			}
			for i := confSubjects / 2; i < confSubjects; i++ {
				if err := svc.Enroll(ctx, confID(i), "D0", gal[i]); err != nil {
					t.Fatal(err)
				}
			}
			st, err := svc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Enrollments != confSubjects || st.Shards != ic.shards || len(st.DegradedShards) != 0 {
				t.Fatalf("stats after enrollment: %+v", st)
			}
			// In-process services must report their index state; the
			// remote cases' servers here are exhaustive, or have no stats
			// source and report false.
			wantIndexed := ic.indexed && !strings.HasPrefix(ic.name, "remote")
			if st.Indexed != wantIndexed {
				t.Fatalf("stats.Indexed = %v, want %v", st.Indexed, wantIndexed)
			}

			// Duplicate enrollment is ErrDuplicate on every path.
			if err := svc.Enroll(ctx, confID(0), "D0", gal[0]); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("duplicate enroll: want ErrDuplicate, got %v", err)
			}

			// A nil template is an error on every path — never a panic,
			// in the caller or the server — and enrolls nothing.
			if err := svc.Enroll(ctx, "nil-one", "D0", nil); err == nil {
				t.Fatal("enroll nil template: no error")
			}
			nilBatch := []Enrollment{{ID: "nil-batch", DeviceID: "D0"}, {ID: confID(0), DeviceID: "D0", Template: gal[0]}}
			if err := svc.EnrollBatch(ctx, nilBatch); err == nil {
				t.Fatal("enroll batch with a nil template: no error")
			}
			if _, err := svc.Verify(ctx, confID(2), nil); err == nil {
				t.Fatal("verify nil probe: no error")
			}
			if _, _, err := svc.IdentifyDetailed(ctx, nil, 1); err == nil {
				t.Fatal("identify nil probe: no error")
			}
			if st, err := svc.Stats(ctx); err != nil || st.Enrollments != confSubjects {
				t.Fatalf("stats after nil templates: %+v err=%v", st, err)
			}

			// 1:1 verification: bit-identical scores everywhere.
			res, err := svc.Verify(ctx, confID(2), probes[0])
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != verifyWant {
				t.Fatalf("verify score %v, want %v", res.Score, verifyWant)
			}
			if _, err := svc.Verify(ctx, "nobody", probes[0]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("verify unknown: want ErrNotFound, got %v", err)
			}

			// Identification across the k matrix. Every k <= 0 and every
			// k >= gallery size is the full exhaustive ranking —
			// bit-identical to the golden list on all paths, indexed or
			// not (indexes only serve partial-k searches).
			for _, k := range []int{-3, 0, confSubjects, confSubjects + 8} {
				got, stats, err := svc.IdentifyDetailed(ctx, probes[0], k)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				sameCandidates(t, fmt.Sprintf("k=%d", k), got, fullRank)
				if stats.GallerySize != confSubjects || stats.Partial {
					t.Fatalf("k=%d: implausible stats %+v", k, stats)
				}
				if stats.ShardsQueried != ic.shards {
					t.Fatalf("k=%d: queried %d shards, want %d", k, stats.ShardsQueried, ic.shards)
				}
			}
			// Partial-k searches: indexed paths may legitimately prune,
			// so the cross-implementation contract is the result length
			// and the rank-1 hit; exhaustive paths must stay
			// bit-identical.
			for _, k := range []int{1, 4} {
				got, stats, err := svc.IdentifyDetailed(ctx, probes[0], k)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if len(got) != k {
					t.Fatalf("k=%d: %d candidates", k, len(got))
				}
				if got[0].ID != fullRank[0].ID {
					t.Fatalf("k=%d: rank-1 %q, want %q", k, got[0].ID, fullRank[0].ID)
				}
				if !stats.Indexed {
					sameCandidates(t, fmt.Sprintf("k=%d", k), got, fullRank[:k])
				}
			}

			// Removal: gone from verification and from rankings,
			// ErrNotFound on the second attempt.
			if err := svc.Remove(ctx, confID(5)); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Verify(ctx, confID(5), probes[5]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("verify removed: want ErrNotFound, got %v", err)
			}
			if err := svc.Remove(ctx, confID(5)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double remove: want ErrNotFound, got %v", err)
			}
			got, err := svc.Identify(ctx, probes[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, "post-remove full ranking", got, afterRemove)
			if st, err := svc.Stats(ctx); err != nil || st.Enrollments != confSubjects-1 {
				t.Fatalf("stats after remove: %+v err=%v", st, err)
			}

			// Pre-cancelled contexts fail fast with ctx.Err() on every
			// method, and leave the service untouched.
			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if err := svc.Enroll(pre, "late", "D0", gal[0]); !errors.Is(err, context.Canceled) {
				t.Fatalf("enroll pre-cancelled: %v", err)
			}
			if err := svc.EnrollBatch(pre, items); !errors.Is(err, context.Canceled) {
				t.Fatalf("enroll batch pre-cancelled: %v", err)
			}
			if err := svc.Remove(pre, confID(1)); !errors.Is(err, context.Canceled) {
				t.Fatalf("remove pre-cancelled: %v", err)
			}
			if _, err := svc.Verify(pre, confID(1), probes[1]); !errors.Is(err, context.Canceled) {
				t.Fatalf("verify pre-cancelled: %v", err)
			}
			if _, _, err := svc.IdentifyDetailed(pre, probes[0], 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("identify pre-cancelled: %v", err)
			}
			if _, err := svc.Stats(pre); !errors.Is(err, context.Canceled) {
				t.Fatalf("stats pre-cancelled: %v", err)
			}
			// The cancelled calls changed nothing and the service still
			// serves.
			st2, err := svc.Stats(ctx)
			if err != nil || st2.Enrollments != confSubjects-1 {
				t.Fatalf("service unusable after cancelled calls: %+v err=%v", st2, err)
			}
		})
	}
}

// fullRankScoreOf extracts one candidate's score from the golden full
// ranking.
func fullRankScoreOf(rank []Candidate, id string) float64 {
	for _, c := range rank {
		if c.ID == id {
			return c.Score
		}
	}
	return -1
}
