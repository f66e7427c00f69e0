package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// Captured templates are the expensive fixture; build one shared set.
var (
	tplOnce   sync.Once
	tplGal    []*minutiae.Template // D0 sample 0
	tplProbes []*minutiae.Template // D1 sample 1 (cross-device probes)
	tplErr    error
)

const tplCount = 24

// ctx is the background context shared by tests that exercise no
// cancellation behavior of their own.
var ctx = context.Background()

func fixtures(t *testing.T) (gal, probes []*minutiae.Template) {
	t.Helper()
	tplOnce.Do(func() {
		cohort := population.NewCohort(rng.New(20130624), population.CohortOptions{Size: tplCount})
		d0, _ := sensor.ProfileByID("D0")
		d1, _ := sensor.ProfileByID("D1")
		for _, s := range cohort.Subjects {
			g, err := d0.CaptureSubject(s, 0, sensor.CaptureOptions{})
			if err != nil {
				tplErr = err
				return
			}
			p, err := d1.CaptureSubject(s, 1, sensor.CaptureOptions{})
			if err != nil {
				tplErr = err
				return
			}
			tplGal = append(tplGal, g.Template)
			tplProbes = append(tplProbes, p.Template)
		}
	})
	if tplErr != nil {
		t.Fatal(tplErr)
	}
	return tplGal, tplProbes
}

func subjectID(i int) string { return fmt.Sprintf("subject-%04d", i) }

// localRouter builds a router over n fresh local shards.
func localRouter(t *testing.T, n int, opt Options) *Router {
	t.Helper()
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = NewLocal(fmt.Sprintf("shard-%d", i), gallery.New(nil))
	}
	r, err := New(backends, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r1 := newRing(names)
	r2 := newRing(names)
	counts := make([]int, len(names))
	for i := 0; i < 10000; i++ {
		id := subjectID(i)
		o1, o2 := r1.owner(id), r2.owner(id)
		if o1 != o2 {
			t.Fatalf("ring not deterministic for %q: %d vs %d", id, o1, o2)
		}
		counts[o1]++
	}
	for i, c := range counts {
		if c < 10000/len(names)/4 {
			t.Fatalf("shard %d owns only %d of 10000 keys: %v", i, c, counts)
		}
	}
}

func TestRingBoundedMovementOnShardAdd(t *testing.T) {
	before := newRing([]string{"a", "b", "c", "d"})
	after := newRing([]string{"a", "b", "c", "d", "e"})
	moved := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		id := subjectID(i)
		if before.owner(id) != after.owner(id) {
			moved++
		}
	}
	// Ideal movement is 1/5 of the keys; allow generous slack for hash
	// variance, but far below the ~4/5 a modulo partition would move.
	if frac := float64(moved) / keys; frac > 0.4 {
		t.Fatalf("adding one shard moved %.0f%% of keys", 100*frac)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := New(nil, Options{}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("want ErrNoBackends, got %v", err)
	}
	dup := []Backend{
		NewLocal("x", gallery.New(nil)),
		NewLocal("x", gallery.New(nil)),
	}
	if _, err := New(dup, Options{}); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("want ErrDuplicateName, got %v", err)
	}
}

func TestEnrollRoutesToOwner(t *testing.T) {
	gal, _ := fixtures(t)
	r := localRouter(t, 3, Options{})
	for i, tpl := range gal {
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := r.Len(ctx); err != nil || n != len(gal) {
		t.Fatalf("router Len = %d, %v; want %d", n, err, len(gal))
	}
	for i := range gal {
		id := subjectID(i)
		owner := r.Owner(id)
		for s, b := range r.Backends() {
			_, err := b.Verify(ctx, id, gal[i])
			if s == owner && err != nil {
				t.Fatalf("owner shard %d missing %q: %v", s, id, err)
			}
			if s != owner && err == nil {
				t.Fatalf("%q found on non-owner shard %d", id, s)
			}
		}
	}
}

func TestEnrollBatchMatchesIndividualPlacement(t *testing.T) {
	gal, _ := fixtures(t)
	one := localRouter(t, 3, Options{})
	batch := localRouter(t, 3, Options{})
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		if err := one.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
	}
	if err := batch.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	for s := range one.Backends() {
		a, _ := one.Backends()[s].Len(ctx)
		b, _ := batch.Backends()[s].Len(ctx)
		if a != b {
			t.Fatalf("shard %d: Enroll placed %d, EnrollBatch placed %d", s, a, b)
		}
	}
}

// TestEnrollBatchUnderShardOutage pins what a cross-shard batch leaves
// behind when one shard is down: the other shards' groups whole, the
// failed shard's group absent, an error naming only the failed shard,
// one health charge on it per call and none elsewhere — and a re-drive
// after recovery that fills in the missing group while the groups
// already enrolled answer ErrDuplicate.
func TestEnrollBatchUnderShardOutage(t *testing.T) {
	gal, _ := fixtures(t)
	const down = 1
	backends := make([]Backend, 3)
	for i := range backends {
		backends[i] = NewLocal(fmt.Sprintf("shard-%d", i), gallery.New(nil))
	}
	flaky := &flakyBackend{Backend: backends[down]}
	backends[down] = flaky
	r, err := New(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Enrollment, len(gal))
	group := make([]int, len(backends))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
		group[r.Owner(items[i].ID)]++
	}
	for s, n := range group {
		if n == 0 {
			t.Fatalf("fixture leaves shard %d without a group", s)
		}
	}
	wantLens := func(when string, want ...int) {
		t.Helper()
		for s, b := range backends {
			if got, err := b.Len(ctx); err != nil || got != want[s] {
				t.Fatalf("%s: shard %d holds %d (%v), want %d", when, s, got, err, want[s])
			}
		}
	}

	flaky.setFail(true)
	for call := 1; call <= 2; call++ {
		err := r.EnrollBatch(ctx, items)
		if call == 1 {
			// The healthy groups landed; the second call finds them taken.
			if err == nil || errors.Is(err, gallery.ErrDuplicate) {
				t.Fatalf("call 1: %v, want only the injected failure", err)
			}
			for s := range backends {
				if named := strings.Contains(err.Error(), fmt.Sprintf("%q", backends[s].Name())); named != (s == down) {
					t.Fatalf("call 1: error %q names shard %d: %v, want %v", err, s, named, s == down)
				}
			}
		}
		for s := range backends {
			want := int32(0)
			if s == down {
				want = int32(call)
			}
			if got := r.health[s].fails.Load(); got != want {
				t.Fatalf("call %d: shard %d charged %d failures, want %d", call, s, got, want)
			}
		}
	}
	if len(r.Degraded()) != 0 {
		t.Fatalf("two failed calls degraded %v below the threshold of 3", r.Degraded())
	}
	flaky.setFail(false)
	wantLens("during the outage", group[0], 0, group[2])

	err = r.EnrollBatch(ctx, items)
	if !errors.Is(err, gallery.ErrDuplicate) {
		t.Fatalf("re-drive: %v, want ErrDuplicate from the groups already enrolled", err)
	}
	if strings.Contains(err.Error(), fmt.Sprintf("%q", backends[down].Name())) {
		t.Fatalf("re-drive error %q names the recovered shard", err)
	}
	wantLens("after the re-drive", group...)
	for i := range items {
		if _, err := r.Verify(ctx, items[i].ID, gal[i]); err != nil {
			t.Fatalf("re-drive left %s unreachable: %v", items[i].ID, err)
		}
	}
	for s := range backends {
		if got := r.health[s].fails.Load(); got != 0 {
			t.Fatalf("after recovery shard %d still carries %d failures", s, got)
		}
	}
}

// TestEnrollBatchErrorNamesShardsInRingOrder: each shard's failure
// lands in its own slot, so the joined error reads in ring-construction
// order however the parallel batches finish.
func TestEnrollBatchErrorNamesShardsInRingOrder(t *testing.T) {
	gal, _ := fixtures(t)
	backends := make([]Backend, 4)
	for i := range backends {
		backends[i] = NewLocal(fmt.Sprintf("shard-%d", i), gallery.New(nil))
	}
	// The earlier failing shard answers last.
	late := &flakyBackend{Backend: backends[1], fail: true, slow: 5 * time.Millisecond}
	early := &flakyBackend{Backend: backends[3], fail: true}
	backends[1], backends[3] = late, early
	r, err := New(backends, Options{FailureThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Enrollment, len(gal))
	group := make([]int, len(backends))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
		group[r.Owner(items[i].ID)]++
	}
	if group[1] == 0 || group[3] == 0 {
		t.Fatalf("fixture leaves a failing shard without a group: %v", group)
	}
	for run := 0; run < 20; run++ {
		err := r.EnrollBatch(ctx, items)
		if err == nil {
			t.Fatalf("run %d: batch over two failing shards succeeded", run)
		}
		msg := err.Error()
		at1, at3 := strings.Index(msg, `"shard-1"`), strings.Index(msg, `"shard-3"`)
		if at1 < 0 || at3 < 0 || at1 > at3 {
			t.Fatalf("run %d: error %q, want shard-1 named before shard-3", run, msg)
		}
	}
}

// gateBackend parks every identify until its context is done or the
// gate opens, announcing each arrival.
type gateBackend struct {
	Backend
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	g.entered <- struct{}{}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, gallery.IdentifyStats{}, ctx.Err()
	}
	return g.Backend.IdentifyDetailed(ctx, probe, k)
}

// TestUnhedgedLegIsOneGoroutine: the backend call runs on the scatter
// goroutine itself, so N legs parked under a ShardTimeout cost N
// goroutines plus the caller — no second goroutine per leg to abandon
// the call from.
func TestUnhedgedLegIsOneGoroutine(t *testing.T) {
	_, probes := fixtures(t)
	const n = 4
	entered, gate := make(chan struct{}, n), make(chan struct{})
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = &gateBackend{Backend: NewLocal(fmt.Sprintf("shard-%d", i), gallery.New(nil)), entered: entered, gate: gate}
	}
	r, err := New(backends, Options{ShardTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Let goroutines of earlier tests finish before taking the baseline.
	before := runtime.NumGoroutine()
	for settle := 0; settle < 10; settle++ {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now != before {
			before, settle = now, 0
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r.IdentifyDetailed(ctx, probes[0], 3)
		done <- err
	}()
	for i := 0; i < n; i++ {
		<-entered
	}
	if rose := runtime.NumGoroutine() - before; rose != n+1 {
		t.Errorf("%d parked legs cost %d goroutines, want %d (one per leg plus the caller)", n, rose, n+1)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("identify once the gate opened: %v", err)
	}
}

// TestShardedIdentifyBitIdenticalToSingleStore is the core contract:
// with exhaustive per-shard search, the merged global top-k (IDs,
// scores, order) must equal a single store holding the same
// enrollments.
func TestShardedIdentifyBitIdenticalToSingleStore(t *testing.T) {
	gal, probes := fixtures(t)
	single := gallery.New(nil)
	for i, tpl := range gal {
		if err := single.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 2, 4, 7} {
		r := localRouter(t, shards, Options{})
		items := make([]Enrollment, len(gal))
		for i, tpl := range gal {
			items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
		}
		if err := r.EnrollBatch(ctx, items); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 0, len(gal) + 10} {
			for pi, probe := range probes[:6] {
				want, err := single.IdentifyContext(ctx, probe, k)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := r.IdentifyDetailed(ctx, probe, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d k=%d probe=%d: %d candidates, want %d",
						shards, k, pi, len(got), len(want))
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("shards=%d k=%d probe=%d: candidate %d = %+v, want %+v",
							shards, k, pi, c, got[c], want[c])
					}
				}
				if stats.GallerySize != len(gal) {
					t.Fatalf("aggregate gallery size %d, want %d", stats.GallerySize, len(gal))
				}
				if stats.ShardsQueried != shards || stats.Partial {
					t.Fatalf("implausible stats: %+v", stats)
				}
			}
		}
	}
}

func TestIdentifyStatsAggregation(t *testing.T) {
	gal, probes := fixtures(t)
	r := localRouter(t, 4, Options{})
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
	}
	if err := r.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	_, stats, err := r.IdentifyDetailed(ctx, probes[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsQueried != 4 || stats.ShardsSkipped != 0 || stats.ShardsFailed != 0 || stats.Partial {
		t.Fatalf("coverage of four healthy shards wrong: %+v", stats)
	}
	if stats.GallerySize != len(gal) {
		t.Fatalf("shard sizes sum to %d, want %d", stats.GallerySize, len(gal))
	}
	// Exhaustive stores: no shard served from an index.
	if stats.Indexed {
		t.Fatalf("index accounting wrong: %+v", stats)
	}
	if stats.Scanned != len(gal) {
		t.Fatalf("scanned %d, want full coverage %d", stats.Scanned, len(gal))
	}
}

// flakyBackend wraps a Backend and fails identification on demand.
type flakyBackend struct {
	Backend
	mu   sync.Mutex
	fail bool
	slow time.Duration
}

func (f *flakyBackend) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

func (f *flakyBackend) broken() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail
}

// lag sits out the configured slowness, or the context.
func (f *flakyBackend) lag(ctx context.Context) error {
	f.mu.Lock()
	slow := f.slow
	f.mu.Unlock()
	if slow > 0 {
		select {
		case <-time.After(slow):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (f *flakyBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	if err := f.lag(ctx); err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	if f.broken() {
		return nil, gallery.IdentifyStats{}, errors.New("injected failure")
	}
	return f.Backend.IdentifyDetailed(ctx, probe, k)
}

func (f *flakyBackend) EnrollBatch(ctx context.Context, items []Enrollment) error {
	if err := f.lag(ctx); err != nil {
		return err
	}
	if f.broken() {
		return errors.New("injected failure")
	}
	return f.Backend.EnrollBatch(ctx, items)
}

func (f *flakyBackend) Len(ctx context.Context) (int, error) {
	if f.broken() {
		return 0, errors.New("injected failure")
	}
	return f.Backend.Len(ctx)
}

// TestLenCountsReachableShards pins Len's contract: an unreachable
// shard contributes zero and is charged a health failure, not an error;
// the error is the caller's ctx.Err() alone, and a failure under an
// ended ctx charges nothing.
func TestLenCountsReachableShards(t *testing.T) {
	gal, _ := fixtures(t)
	flaky := &flakyBackend{Backend: NewLocal("flaky", gallery.New(nil))}
	r, err := New([]Backend{NewLocal("ok", gallery.New(nil)), flaky}, Options{FailureThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Enrollment, len(gal))
	for i, tpl := range gal {
		items[i] = Enrollment{ID: subjectID(i), DeviceID: "D0", Template: tpl}
	}
	if err := r.EnrollBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	onOK, _ := r.Backends()[0].Len(ctx)
	if onOK == 0 || onOK == len(gal) {
		t.Fatalf("fixture placed %d of %d enrollments on shard 0; want both shards used", onOK, len(gal))
	}
	flaky.setFail(true)

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.Len(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Len under a cancelled ctx: %v, want Canceled", err)
	}
	if got := r.Degraded(); len(got) != 0 {
		t.Fatalf("failure under a cancelled ctx charged: degraded = %v", got)
	}

	if n, err := r.Len(ctx); err != nil || n != onOK {
		t.Fatalf("Len with shard 1 unreachable = %d, %v; want %d, nil", n, err, onOK)
	}
	if got := r.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("degraded = %v, want [1]", got)
	}
}

func TestHealthDegradationSkipAndRecovery(t *testing.T) {
	gal, probes := fixtures(t)
	flaky := &flakyBackend{Backend: NewLocal("flaky", gallery.New(nil))}
	backends := []Backend{NewLocal("ok", gallery.New(nil)), flaky}
	r, err := New(backends, Options{FailureThreshold: 2, Policy: SkipDegraded})
	if err != nil {
		t.Fatal(err)
	}
	for i, tpl := range gal {
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	flaky.setFail(true)
	// Below the threshold the shard is still queried; each failure is
	// partial coverage, and after two consecutive failures it degrades.
	for attempt := 0; attempt < 2; attempt++ {
		_, stats, err := r.IdentifyDetailed(ctx, probes[0], 3)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ShardsFailed != 1 || !stats.Partial {
			t.Fatalf("attempt %d: %+v", attempt, stats)
		}
	}
	if got := r.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("degraded = %v, want [1]", got)
	}
	// Degraded: skipped, not queried.
	_, stats, err := r.IdentifyDetailed(ctx, probes[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsSkipped != 1 || stats.ShardsFailed != 0 || !stats.Partial {
		t.Fatalf("degraded shard not skipped: %+v", stats)
	}

	// Repair and re-probe: CheckHealth readmits the shard.
	flaky.setFail(false)
	errs := r.CheckHealth(ctx)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("health probe after repair: %v", errs)
	}
	if got := r.Degraded(); len(got) != 0 {
		t.Fatalf("still degraded after repair: %v", got)
	}
	_, stats, err = r.IdentifyDetailed(ctx, probes[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsQueried != 2 || stats.Partial {
		t.Fatalf("recovered shard not queried: %+v", stats)
	}
}

// TestApplicationRefusalsDoNotDegrade is the regression test for health
// accounting that charged a shard for application answers: unknown-ID
// verifies and removes and duplicate enrollments prove the backend
// alive, so after a failure-threshold's worth of each, no shard is
// degraded and identification still covers every shard — over local
// stores and over the wire alike.
func TestApplicationRefusalsDoNotDegrade(t *testing.T) {
	gal, probes := fixtures(t)
	kinds := map[string]func(name string) Backend{
		"local":  func(name string) Backend { return NewLocal(name, gallery.New(nil)) },
		"remote": func(name string) Backend { return bootShard(t, name) },
	}
	for kind, mk := range kinds {
		t.Run(kind, func(t *testing.T) {
			r, err := New([]Backend{mk("a"), mk("b")}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, tpl := range gal {
				if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
					t.Fatal(err)
				}
			}
			// Aim every refusal at one shard: IDs that all hash to the
			// owner of subject 0.
			target := r.Owner(subjectID(0))
			var unknown []string
			for i := 0; len(unknown) < 3; i++ {
				if id := fmt.Sprintf("nobody-%d", i); r.Owner(id) == target {
					unknown = append(unknown, id)
				}
			}
			refusals := []struct {
				name string
				do   func(i int) error
				want error
			}{
				{"verify unknown", func(i int) error { _, err := r.Verify(ctx, unknown[i], probes[0]); return err }, gallery.ErrNotFound},
				{"remove unknown", func(i int) error { return r.Remove(ctx, unknown[i]) }, gallery.ErrNotFound},
				{"enroll duplicate", func(int) error {
					return r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(0), DeviceID: "D0", Template: gal[0]}})
				}, gallery.ErrDuplicate},
			}
			for _, ref := range refusals {
				for i := 0; i < 3; i++ {
					if err := ref.do(i); !errors.Is(err, ref.want) {
						t.Fatalf("%s %d: err = %v, want %v", ref.name, i, err, ref.want)
					}
				}
				if deg := r.Degraded(); len(deg) != 0 {
					t.Fatalf("after three %s calls: degraded = %v", ref.name, deg)
				}
				_, stats, err := r.IdentifyDetailed(ctx, probes[0], 3)
				if err != nil {
					t.Fatal(err)
				}
				if stats.ShardsQueried != 2 || stats.ShardsSkipped != 0 || stats.Partial || stats.GallerySize != len(gal) {
					t.Fatalf("after three %s calls: identify lost coverage: %+v", ref.name, stats)
				}
			}
		})
	}
}

func TestFailClosedPolicy(t *testing.T) {
	gal, probes := fixtures(t)
	flaky := &flakyBackend{Backend: NewLocal("flaky", gallery.New(nil))}
	backends := []Backend{NewLocal("ok", gallery.New(nil)), flaky}
	r, err := New(backends, Options{FailureThreshold: 1, Policy: FailClosed})
	if err != nil {
		t.Fatal(err)
	}
	for i, tpl := range gal[:8] {
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	flaky.setFail(true)
	// First search: the shard fails mid-search → the search fails.
	if _, _, err := r.IdentifyDetailed(ctx, probes[0], 3); err == nil {
		t.Fatal("fail-closed search succeeded with a failing shard")
	}
	// The failure degraded the shard → subsequent searches fail fast.
	if _, _, err := r.IdentifyDetailed(ctx, probes[0], 3); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v", err)
	}
}

func TestShardTimeout(t *testing.T) {
	gal, probes := fixtures(t)
	slow := &flakyBackend{Backend: NewLocal("slow", gallery.New(nil)), slow: 300 * time.Millisecond}
	backends := []Backend{NewLocal("fast", gallery.New(nil)), slow}
	r, err := New(backends, Options{ShardTimeout: 30 * time.Millisecond, Policy: SkipDegraded})
	if err != nil {
		t.Fatal(err)
	}
	for i, tpl := range gal[:8] {
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, stats, err := r.IdentifyDetailed(ctx, probes[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsFailed != 1 || !stats.Partial {
		t.Fatalf("slow shard not timed out: %+v", stats)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("search waited %v for the slow shard", elapsed)
	}
	// Missing the leg deadline is the shard's failure, charged once per
	// leg: the search above charged one, and the leg run on its own is
	// named ErrShardTimeout and charges the second.
	if fails := r.health[1].fails.Load(); fails != 1 {
		t.Fatalf("slow shard charged %d failures, want 1", fails)
	}
	if ans := r.leg(ctx, 1, probes[0], 3); !errors.Is(ans.err, ErrShardTimeout) {
		t.Fatalf("slow shard's leg reports %v, want %v", ans.err, ErrShardTimeout)
	}
	if fails := r.health[1].fails.Load(); fails != 2 {
		t.Fatalf("slow shard charged %d failures after two legs, want 2", fails)
	}
	// A caller deadline shorter than the leg's is the caller giving up:
	// ctx.Err(), and nobody is charged.
	dctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if _, _, err := r.IdentifyDetailed(dctx, probes[0], 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("identify under a 5ms caller deadline: %v, want DeadlineExceeded", err)
	}
	if fails := r.health[1].fails.Load(); fails != 2 {
		t.Fatalf("caller deadline moved the slow shard's failures to %d, want 2", fails)
	}
}

func TestAllShardsFailedIsAnError(t *testing.T) {
	_, probes := fixtures(t)
	flaky := &flakyBackend{Backend: NewLocal("only", gallery.New(nil))}
	r, err := New([]Backend{flaky}, Options{FailureThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	flaky.setFail(true)
	if _, _, err := r.IdentifyDetailed(ctx, probes[0], 1); err == nil {
		t.Fatal("total outage reported as an empty result")
	}
}

func TestVerifyAndRemoveRouting(t *testing.T) {
	gal, probes := fixtures(t)
	r := localRouter(t, 3, Options{})
	for i, tpl := range gal[:6] {
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Verify(ctx, subjectID(2), probes[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("genuine verify score %v", res.Score)
	}
	if _, err := r.Verify(ctx, "nobody", probes[0]); err == nil {
		t.Fatal("verify of unknown ID succeeded")
	}
	if err := r.Remove(ctx, subjectID(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(ctx, subjectID(2)); err == nil {
		t.Fatal("double remove succeeded")
	}
	if n, err := r.Len(ctx); err != nil || n != 5 {
		t.Fatalf("Len after remove = %d, %v", n, err)
	}
}

func TestRouterConcurrentUse(t *testing.T) {
	gal, probes := fixtures(t)
	r := localRouter(t, 3, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 6; i < (w+1)*6; i++ {
				if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: gal[i]}}); err != nil {
					errs <- err
					return
				}
				if _, _, err := r.IdentifyDetailed(ctx, probes[i%len(probes)], 2); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := r.Len(ctx); err != nil || n != 24 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

// TestDegenerateKMatchesSingleStore pins the satellite contract: for
// any k <= 0 the router and a single store holding the same
// enrollments return the identical full ranking, and a k beyond the
// gallery clamps the same way on both paths.
func TestDegenerateKMatchesSingleStore(t *testing.T) {
	gal, probes := fixtures(t)
	single := gallery.New(nil)
	r := localRouter(t, 3, Options{})
	for i, tpl := range gal {
		if err := single.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{-1000, -7, -1, 0, len(gal), len(gal) + 13} {
		for pi, probe := range probes[:3] {
			want, err := single.IdentifyContext(ctx, probe, k)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := r.IdentifyDetailed(ctx, probe, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) != len(gal) {
				t.Fatalf("k=%d probe=%d: router %d candidates, single %d, want %d",
					k, pi, len(got), len(want), len(gal))
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("k=%d probe=%d: candidate %d = %+v, want %+v", k, pi, c, got[c], want[c])
				}
			}
		}
	}
}

// TestIdentifyCancellationPromptAndRouterReusable proves the
// scatter-gather satellite contract: cancelling the context of an
// in-flight IdentifyDetailed returns ctx.Err() well before the slowest
// shard would have answered, charges no shard a health penalty, leaks
// no workers, and leaves the router serving subsequent searches.
func TestIdentifyCancellationPromptAndRouterReusable(t *testing.T) {
	gal, probes := fixtures(t)
	slow := &flakyBackend{Backend: NewLocal("slow", gallery.New(nil)), slow: 10 * time.Second}
	backends := []Backend{NewLocal("fast", gallery.New(nil)), slow}
	// FailureThreshold 1 makes any wrongly-recorded failure degrade the
	// shard immediately, so the post-cancel assertions would catch it.
	r, err := New(backends, Options{FailureThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, tpl := range gal[:8] {
		if err := r.EnrollBatch(ctx, []Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = r.IdentifyDetailed(cctx, probes[0], 3)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled scatter returned after %v", elapsed)
	}
	// The caller's cancellation is not the shard's fault.
	if got := r.Degraded(); len(got) != 0 {
		t.Fatalf("cancellation degraded shards %v", got)
	}
	// Abandoned workers drain (the slow backend honors its context).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("worker leak: %d goroutines before, %d after", before, now)
	}
	// The router stays usable: clear the slowdown and search again.
	slow.mu.Lock()
	slow.slow = 0
	slow.mu.Unlock()
	got, stats, err := r.IdentifyDetailed(ctx, probes[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial || stats.ShardsQueried != 2 {
		t.Fatalf("router degraded after cancellation: %+v", stats)
	}
	if len(got) == 0 {
		t.Fatal("no candidates after recovery")
	}
}

// TestIdentifyPreCancelledContext fails fast without querying any
// shard.
func TestIdentifyPreCancelledContext(t *testing.T) {
	_, probes := fixtures(t)
	r := localRouter(t, 2, Options{})
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.IdentifyDetailed(pre, probes[0], 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := r.Verify(pre, "x", probes[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("verify: want context.Canceled, got %v", err)
	}
	if err := r.EnrollBatch(pre, []Enrollment{{ID: "x", DeviceID: "D0", Template: probes[0]}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("enroll: want context.Canceled, got %v", err)
	}
	if got := r.Degraded(); len(got) != 0 {
		t.Fatalf("pre-cancelled calls degraded shards %v", got)
	}
}
