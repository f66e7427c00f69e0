package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
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

// Captured templates are the expensive fixture; build one shared set,
// and a larger one for the tests that need a bulk load.
var (
	tplOnce   sync.Once
	tplGal    []*minutiae.Template // D0 sample 0 — enrollments
	tplProbes []*minutiae.Template // D1 sample 1 — cross-device probes
	tplErr    error

	bulkOnce            sync.Once
	bulkGal, bulkProbes []*minutiae.Template
	bulkErr             error
)

const (
	tplCount = 16
	// bulkCount is large enough that the index's bulk build and its
	// incremental adds cross merges and lay out keys differently.
	bulkCount = 220
)

// capture captures n subjects of a seeded cohort on D0 (sample 0) and,
// for the first probes of them, on D1 (sample 1).
func capture(seed uint64, n, probes int) (gal, prb []*minutiae.Template, err error) {
	cohort := population.NewCohort(rng.New(seed), population.CohortOptions{Size: n})
	d0, _ := sensor.ProfileByID("D0")
	d1, _ := sensor.ProfileByID("D1")
	for i, s := range cohort.Subjects {
		g, err := d0.CaptureSubject(s, 0, sensor.CaptureOptions{})
		if err != nil {
			return nil, nil, err
		}
		gal = append(gal, g.Template)
		if i < probes {
			p, err := d1.CaptureSubject(s, 1, sensor.CaptureOptions{})
			if err != nil {
				return nil, nil, err
			}
			prb = append(prb, p.Template)
		}
	}
	return gal, prb, nil
}

func fixtures(t testing.TB) (gal, probes []*minutiae.Template) {
	t.Helper()
	tplOnce.Do(func() { tplGal, tplProbes, tplErr = capture(20130624, tplCount, tplCount) })
	if tplErr != nil {
		t.Fatal(tplErr)
	}
	return tplGal, tplProbes
}

// bulkFixtures is bulkCount gallery templates and probes of the first
// eight subjects.
func bulkFixtures(t testing.TB) (gal, probes []*minutiae.Template) {
	t.Helper()
	bulkOnce.Do(func() { bulkGal, bulkProbes, bulkErr = capture(20130625, bulkCount, 8) })
	if bulkErr != nil {
		t.Fatal(bulkErr)
	}
	return bulkGal, bulkProbes
}

func subjectID(i int) string { return fmt.Sprintf("subject-%04d", i) }

// startPrimary serves a WAL-backed store over a loopback listener and
// returns the store plus a connected client.
func startPrimary(t *testing.T, ws matchsvc.Store) *matchsvc.Client {
	t.Helper()
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
	cli := dialT(t, addr)
	t.Cleanup(func() { cli.Close() })
	return cli
}

func openPrimary(t *testing.T) *wal.Store {
	t.Helper()
	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return ws
}

// sortedExports lifts a store's whole contents out through its own
// serialization (SaveTo, read back with ReadEntries), ordered by ID so
// two stores filled in different orders compare entry for entry.
func sortedExports(t testing.TB, s *gallery.Store) []gallery.Export {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := gallery.ReadEntries(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// wantMirror fails unless the replica gallery holds exactly the
// primary's entries, templates byte-identical.
func wantMirror(t *testing.T, replica *gallery.Store, ws *wal.Store) {
	t.Helper()
	got, want := sortedExports(t, replica), sortedExports(t, ws.Store)
	if len(got) != len(want) {
		t.Fatalf("replica holds %d entries, primary %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].DeviceID != want[i].DeviceID {
			t.Fatalf("entry %d: %q/%q vs %q/%q", i, got[i].ID, got[i].DeviceID, want[i].ID, want[i].DeviceID)
		}
		gb, err := minutiae.Marshal(got[i].Template)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := minutiae.Marshal(want[i].Template)
		if err != nil {
			t.Fatal(err)
		}
		if string(gb) != string(wb) {
			t.Fatalf("entry %q template bytes differ", got[i].ID)
		}
	}
}

// TestFollowerBootstrapsFromSnapshotThenTails: a follower that has
// applied nothing takes a loaded primary's state in one snapshot
// restore, not by replaying its log, and the tail then carries exactly
// the writes that came after. Against a primary whose log is empty
// there is nothing to restore.
func TestFollowerBootstrapsFromSnapshotThenTails(t *testing.T) {
	gal, _ := fixtures(t)
	ctx := context.Background()

	t.Run("empty primary", func(t *testing.T) {
		cli := startPrimary(t, openPrimary(t))
		f := NewFollower(gallery.New(nil), cli, FollowerOptions{})
		if err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if f.restores.Value() != 0 || f.LSN() != 0 {
			t.Fatalf("empty primary: %d restores, lsn %d; want 0 and 0", f.restores.Value(), f.LSN())
		}
	})

	ws := openPrimary(t)
	cli := startPrimary(t, ws)
	local := gallery.New(nil)
	f := NewFollower(local, cli, FollowerOptions{})
	for i, tpl := range gal[:6] {
		if err := ws.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if f.LSN() != ws.LSN() || f.Lag() != 0 {
		t.Fatalf("follower at lsn %d lag %d, primary at %d", f.LSN(), f.Lag(), ws.LSN())
	}
	if f.restores.Value() != 1 || f.applied.Value() != 0 {
		t.Fatalf("bootstrap: %d restores, %d records applied; want 1 and 0", f.restores.Value(), f.applied.Value())
	}
	wantMirror(t, local, ws)

	// Incremental rounds: more enrolls and a removal arrive as tail
	// records, not a fresh snapshot.
	for i, tpl := range gal[6:9] {
		if err := ws.Enroll(subjectID(6+i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Remove(subjectID(2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	wantMirror(t, local, ws)
	if f.restores.Value() != 1 || f.applied.Value() != 4 {
		t.Fatalf("catch-up: %d restores, %d records applied; want 1 and 4", f.restores.Value(), f.applied.Value())
	}
}

// expireFirstResume is a primary whose first resumed snapshot chunk
// reports its capture gone, as when a second replica's fresh capture
// after a write replaces it between two chunks. fresh counts the
// transfers started.
type expireFirstResume struct {
	*wal.Store
	expired atomic.Bool
	fresh   atomic.Int32
}

func (s *expireFirstResume) SyncSnapshot(resumeLSN uint64) (uint64, []byte, error) {
	if resumeLSN == 0 {
		s.fresh.Add(1)
	} else if s.expired.CompareAndSwap(false, true) {
		return 0, nil, wal.ErrSnapshotExpired
	}
	return s.Store.SyncSnapshot(resumeLSN)
}

// TestFollowerRestartsExpiredTransfer: a capture that expires mid-way
// through a restore after compaction is fetched again from scratch and
// still lands as one restore; a bootstrap whose capture expires applies
// the tail page it already holds instead of re-capturing.
func TestFollowerRestartsExpiredTransfer(t *testing.T) {
	gal, _ := fixtures(t)
	for _, tc := range []struct {
		name                     string
		compact                  bool
		fresh, restores, applied int
	}{
		{name: "after compaction", compact: true, fresh: 2, restores: 1, applied: 0},
		{name: "bootstrap", fresh: 1, restores: 0, applied: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := openPrimary(t)
			for i, tpl := range gal[:6] {
				if err := ws.Enroll(subjectID(i), "D0", tpl); err != nil {
					t.Fatal(err)
				}
			}
			if tc.compact {
				if err := ws.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			primary := &expireFirstResume{Store: ws}
			local := gallery.New(nil)
			// A tiny chunk budget makes the transfer resume at least once.
			f := NewFollower(local, startPrimary(t, primary), FollowerOptions{MaxBytes: 700})
			if err := f.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !primary.expired.Load() || int(primary.fresh.Load()) != tc.fresh {
				t.Fatalf("expired %v after %d transfers; want the first to expire and %d in all", primary.expired.Load(), primary.fresh.Load(), tc.fresh)
			}
			if int(f.restores.Value()) != tc.restores || int(f.applied.Value()) != tc.applied || f.LSN() != ws.LSN() {
				t.Fatalf("%d restores, %d records applied, lsn %d; want %d, %d and %d",
					f.restores.Value(), f.applied.Value(), f.LSN(), tc.restores, tc.applied, ws.LSN())
			}
			wantMirror(t, local, ws)
		})
	}
}

// captureAfterWrite is a primary under steady writes: one write lands
// just before every fresh snapshot capture, so each capture replaces
// the one before it. Captures are taken one at a time, and resumed
// chunks wait until a second transfer has captured, so the first
// transfer's capture is always replaced midway.
type captureAfterWrite struct {
	*wal.Store
	tpl      *minutiae.Template
	mu       sync.Mutex
	fresh    atomic.Int32
	expired  atomic.Int32
	captured chan struct{} // closed once the second capture is taken
}

func (s *captureAfterWrite) SyncSnapshot(resumeLSN uint64) (uint64, []byte, error) {
	if resumeLSN != 0 {
		select {
		case <-s.captured:
		case <-time.After(10 * time.Second):
		}
		lsn, data, err := s.Store.SyncSnapshot(resumeLSN)
		if errors.Is(err, wal.ErrSnapshotExpired) {
			s.expired.Add(1)
		}
		return lsn, data, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.fresh.Add(1)
	if err := s.Store.Enroll(fmt.Sprintf("write-%d", n), "D0", s.tpl); err != nil {
		return 0, nil, err
	}
	lsn, data, err := s.Store.SyncSnapshot(0)
	if n == 2 {
		close(s.captured)
	}
	return lsn, data, err
}

// TestFollowersBootstrapConcurrentlyUnderWrites: two fresh replicas of
// one primary that takes writes both finish bootstrapping. The one
// whose capture the other replaced falls back to the tail; were it to
// re-capture, it would expire the other's transfer in turn, and the
// two could go on expiring each other for as long as writes land.
func TestFollowersBootstrapConcurrentlyUnderWrites(t *testing.T) {
	gal, _ := fixtures(t)
	ws := openPrimary(t)
	for i, tpl := range gal {
		if err := ws.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	primary := &captureAfterWrite{Store: ws, tpl: gal[0], captured: make(chan struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	locals := []*gallery.Store{gallery.New(nil), gallery.New(nil)}
	followers := make([]*Follower, len(locals))
	errs := make(chan error, len(locals))
	for i, local := range locals {
		// A tiny chunk budget spreads each transfer over many chunks.
		followers[i] = NewFollower(local, startPrimary(t, primary), FollowerOptions{MaxBytes: 700})
		go func() { errs <- followers[i].Sync(ctx) }()
	}
	for range locals {
		if err := <-errs; err != nil {
			t.Fatalf("bootstrap under writes: %v after %d captures, %d expired chunks", err, primary.fresh.Load(), primary.expired.Load())
		}
	}
	restores := followers[0].restores.Value() + followers[1].restores.Value()
	if primary.fresh.Load() != 2 || primary.expired.Load() != 1 || restores != 1 {
		t.Fatalf("%d captures, %d expired chunks, %d restores; want 2, 1 and 1", primary.fresh.Load(), primary.expired.Load(), restores)
	}
	for i, f := range followers {
		// The second capture's write may have landed after the first
		// follower's last round.
		if err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		wantMirror(t, locals[i], ws)
	}
}

// TestSnapshotBootstrapEqualsReplay: an indexed replica bootstrapped
// from a snapshot holds what replaying every log record would give it,
// and answers every identification bit-identically — candidates, score
// bits, shortlist size and matcher comparisons.
func TestSnapshotBootstrapEqualsReplay(t *testing.T) {
	gal, probes := bulkFixtures(t)
	ws := openPrimary(t)
	items := make([]gallery.Export, len(gal))
	for i, tpl := range gal {
		items[i] = gallery.Export{ID: subjectID(i), DeviceID: "D0", Template: tpl}
	}
	if err := ws.EnrollBatch(items); err != nil {
		t.Fatal(err)
	}
	// Removals and a re-enrollment under a removed ID, so the replayed
	// history is more than a list of adds.
	for _, i := range []int{3, 50, 120} {
		if err := ws.Remove(subjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Enroll(subjectID(50), "D1", probes[0]); err != nil {
		t.Fatal(err)
	}

	indexed := func() *gallery.Store {
		g := gallery.New(nil)
		if err := g.EnableIndex(gallery.IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		return g
	}
	booted := indexed()
	f := NewFollower(booted, startPrimary(t, ws), FollowerOptions{})
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores.Value() != 1 || f.applied.Value() != 0 {
		t.Fatalf("%d restores, %d records applied; want a snapshot bootstrap", f.restores.Value(), f.applied.Value())
	}
	replayed := indexed()
	page, err := ws.SyncTail(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != len(gal)+4 {
		t.Fatalf("log holds %d records, want %d", len(page.Records), len(gal)+4)
	}
	for _, rec := range page.Records {
		if err := wal.ApplyRecord(replayed, rec); err != nil {
			t.Fatal(err)
		}
	}
	wantMirror(t, booted, ws)
	wantMirror(t, replayed, ws)

	ctx := context.Background()
	served := 0
	for pi, probe := range probes {
		want, wantStats, err := replayed.IdentifyDetailedContext(ctx, probe, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := booted.IdentifyDetailedContext(ctx, probe, 5)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("probe %d: stats %+v, replay %+v", pi, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d candidates, replay %d", pi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("probe %d rank %d: (%q, %v), replay (%q, %v)", pi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
		if gotStats.Indexed {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no probe was served from the index shortlist")
	}
}

func TestFollowerBootstrapsAfterCompaction(t *testing.T) {
	gal, _ := fixtures(t)
	ws := openPrimary(t)
	for i, tpl := range gal[:5] {
		if err := ws.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction discards the log the replica would have tailed: its
	// first sync must detect the gap and restore from a snapshot.
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Enroll(subjectID(5), "D0", gal[5]); err != nil {
		t.Fatal(err)
	}
	cli := startPrimary(t, ws)
	local := gallery.New(nil)
	// A tiny chunk budget forces the multi-chunk snapshot path.
	f := NewFollower(local, cli, FollowerOptions{MaxBytes: 700})
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores.Value() != 1 {
		t.Fatalf("restores = %d, want 1", f.restores.Value())
	}
	wantMirror(t, local, ws)
	if f.Lag() != 0 {
		t.Fatalf("lag = %d after full sync", f.Lag())
	}
}

func TestFollowerRunCatchesUpContinuously(t *testing.T) {
	gal, _ := fixtures(t)
	ws := openPrimary(t)
	cli := startPrimary(t, ws)
	local := gallery.New(nil)
	f := NewFollower(local, cli, FollowerOptions{Interval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	for i, tpl := range gal[:8] {
		if err := ws.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.LSN() != ws.LSN() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, primary at %d", f.LSN(), ws.LSN())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	wantMirror(t, local, ws)
}

func TestFollowerSurvivesPrimaryOutage(t *testing.T) {
	gal, _ := fixtures(t)
	ws := openPrimary(t)

	srv := matchsvc.NewServer(ws, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	sdone := make(chan error, 1)
	go func() { sdone <- srv.Serve(sctx) }()
	cli := dialT(t, addr)
	defer cli.Close()

	local := gallery.New(nil)
	f := NewFollower(local, cli, FollowerOptions{})
	if err := ws.Enroll(subjectID(0), "D0", gal[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Take the primary's listener down: sync rounds fail but return
	// errors rather than wedging, and local reads keep working.
	scancel()
	srv.Close()
	<-sdone
	if err := f.Sync(context.Background()); err == nil {
		t.Fatal("sync against a dead primary reported success")
	}
	if _, ok := local.Get(subjectID(0)); !ok {
		t.Fatal("local state lost during outage")
	}
}

func TestReadOnlyGalleryRefusesWrites(t *testing.T) {
	gal, _ := fixtures(t)
	store := gallery.New(nil)
	if err := store.Enroll(subjectID(0), "D0", gal[0]); err != nil {
		t.Fatal(err)
	}
	ro := ReadOnlyGallery{Store: store}
	if err := ro.Remove(subjectID(0)); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("remove: %v", err)
	}
	// The store's own EnrollBatch must not be promoted through the
	// wrapper: the wire server hands every enrollment, a single one
	// included, to its backend as a batch.
	batch := []gallery.Export{{ID: "y", DeviceID: "D0", Template: gal[1]}}
	if err := ro.EnrollBatch(batch); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("enroll batch: %v", err)
	}
	// Reads pass through to the wrapped store.
	if _, ok := ro.Get(subjectID(0)); !ok {
		t.Fatal("read-only wrapper lost reads")
	}
	if ro.Len() != 1 {
		t.Fatal("len mismatch: a refused write went through")
	}
	// And the wrapper is what the wire server adapts: a store.
	var _ matchsvc.Store = ro
}
