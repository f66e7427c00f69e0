package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
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

// sortedExports lifts a store's whole contents out, ordered by ID so
// two stores filled in different orders compare entry for entry. The
// IDs come from its serialization (SaveTo, read back with ReadEntries),
// the templates from Get: what the store matches against, not what the
// codec makes of it.
func sortedExports(t testing.TB, s *gallery.Store) []gallery.Export {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, _, err := gallery.ReadEntries(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range out {
		held, ok := s.Get(e.ID)
		if !ok {
			t.Fatalf("%q saved but not held", e.ID)
		}
		out[i] = held
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// sameTemplate reports whether a and b are equal field by field,
// coordinates and angles compared by their bits.
func sameTemplate(a, b *minutiae.Template) bool {
	if a.Width != b.Width || a.Height != b.Height || a.DPI != b.DPI || len(a.Minutiae) != len(b.Minutiae) {
		return false
	}
	for i, m := range a.Minutiae {
		o := b.Minutiae[i]
		if math.Float64bits(m.X) != math.Float64bits(o.X) || math.Float64bits(m.Y) != math.Float64bits(o.Y) ||
			math.Float64bits(m.Angle) != math.Float64bits(o.Angle) || m.Kind != o.Kind || m.Quality != o.Quality {
			return false
		}
	}
	return true
}

// wantMirror fails unless the replica gallery holds exactly the
// primary's entries, templates equal field by field and bit for bit.
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
		if !sameTemplate(got[i].Template, want[i].Template) {
			t.Fatalf("entry %q: templates differ", got[i].ID)
		}
	}
}

// rankings is every probe's full identify ranking on s.
func rankings(t *testing.T, s interface {
	IdentifyContext(context.Context, *minutiae.Template, int) ([]gallery.Candidate, error)
}, probes []*minutiae.Template) [][]gallery.Candidate {
	t.Helper()
	out := make([][]gallery.Candidate, len(probes))
	for i, p := range probes {
		var err error
		if out[i], err = s.IdentifyContext(context.Background(), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameRankings fails unless got and want rank the same IDs in the same
// order with the same score bits.
func sameRankings(t *testing.T, label string, got, want [][]gallery.Candidate) {
	t.Helper()
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s, probe %d: %d candidates, want %d", label, p, len(got[p]), len(want[p]))
		}
		for i, w := range want[p] {
			if g := got[p][i]; g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s, probe %d, rank %d: %s %v, want %s %v", label, p, i+1, g.ID, g.Score, w.ID, w.Score)
			}
		}
	}
}

// TestDurableStoreServesWhatItLogs: sensor captures, whose coordinates
// are sub-pixel, enrolled in process into a durable store — one at a
// time and as a batch, on both sides of a compaction — are ranked with
// the same score bits before a close, after the reopen (snapshot plus
// log replay) and on a follower that bootstrapped from a snapshot and
// tailed the rest, and all three hold the same templates.
func TestDurableStoreServesWhatItLogs(t *testing.T) {
	gal, probes := fixtures(t)
	ctx := context.Background()
	dir := t.TempDir()
	ws, err := wal.Open(dir, gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ws.Close() }()
	half := len(gal) / 2
	for i, tpl := range gal[:half/2] {
		if err := ws.Enroll(subjectID(i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(lo, hi int) []gallery.Export {
		var items []gallery.Export
		for i := lo; i < hi; i++ {
			items = append(items, gallery.Export{ID: subjectID(i), DeviceID: "D0", Template: gal[i]})
		}
		return items
	}
	if err := ws.EnrollBatch(batch(half/2, half)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	replica := gallery.New(nil)
	f := NewFollower(replica, startPrimary(t, ws), FollowerOptions{})
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ws.EnrollBatch(batch(half, len(gal))); err != nil {
		t.Fatal(err)
	}
	want := rankings(t, ws, probes)
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if f.restores.Value() != 1 || f.applied.Value() == 0 {
		t.Fatalf("follower: %d restores, %d records applied; want a snapshot and a tail", f.restores.Value(), f.applied.Value())
	}
	sameRankings(t, "follower", rankings(t, replica, probes), want)
	wantMirror(t, replica, ws)

	held := sortedExports(t, ws.Store)
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if ws, err = wal.Open(dir, gallery.New(nil), wal.Options{}); err != nil {
		t.Fatal(err)
	}
	if rs := ws.Recovery(); rs.SnapshotEntries != half || rs.Replayed != len(gal)-half {
		t.Fatalf("recovery %+v; want %d from the snapshot and %d replayed", rs, half, len(gal)-half)
	}
	sameRankings(t, "reopened", rankings(t, ws, probes), want)
	for i, e := range sortedExports(t, ws.Store) {
		if e.ID != held[i].ID || !sameTemplate(e.Template, held[i].Template) {
			t.Fatalf("reopened entry %q holds another template than before the close", e.ID)
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

func (s *expireFirstResume) SyncSnapshot(resumeLSN uint64, offset int64, maxBytes int) (wal.SnapshotChunk, error) {
	if resumeLSN == 0 {
		s.fresh.Add(1)
	} else if s.expired.CompareAndSwap(false, true) {
		return wal.SnapshotChunk{}, wal.ErrSnapshotExpired
	}
	return s.Store.SyncSnapshot(resumeLSN, offset, maxBytes)
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

func (s *captureAfterWrite) SyncSnapshot(resumeLSN uint64, offset int64, maxBytes int) (wal.SnapshotChunk, error) {
	if resumeLSN != 0 {
		select {
		case <-s.captured:
		case <-time.After(10 * time.Second):
		}
		chunk, err := s.Store.SyncSnapshot(resumeLSN, offset, maxBytes)
		if errors.Is(err, wal.ErrSnapshotExpired) {
			s.expired.Add(1)
		}
		return chunk, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.fresh.Add(1)
	if err := s.Store.Enroll(fmt.Sprintf("write-%d", n), "D0", s.tpl); err != nil {
		return wal.SnapshotChunk{}, err
	}
	chunk, err := s.Store.SyncSnapshot(0, offset, maxBytes)
	if n == 2 {
		close(s.captured)
	}
	return chunk, err
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

// indexedGallery is an empty gallery with a retrieval index.
func indexedGallery(t *testing.T) *gallery.Store {
	t.Helper()
	g := gallery.New(nil)
	if err := g.EnableIndex(gallery.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	return g
}

// captureOf reads one whole sync capture from ws.
func captureOf(t *testing.T, ws *wal.Store) []byte {
	t.Helper()
	var data []byte
	for {
		chunk, err := ws.SyncSnapshot(0, int64(len(data)), 0)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, chunk.Data...)
		if int64(len(data)) == chunk.Total {
			return data
		}
	}
}

// fixedCapture is a primary whose sync capture is data, at the store's
// LSN: a capture another build of the primary might ship, or one
// damaged in flight.
type fixedCapture struct {
	*wal.Store
	data []byte
}

func (p *fixedCapture) SyncSnapshot(resumeLSN uint64, offset int64, maxBytes int) (wal.SnapshotChunk, error) {
	lsn := p.Store.LSN()
	if resumeLSN != 0 && resumeLSN != lsn {
		return wal.SnapshotChunk{}, wal.ErrSnapshotExpired
	}
	chunk := p.data[offset:]
	if maxBytes > 0 && len(chunk) > maxBytes {
		chunk = chunk[:maxBytes]
	}
	return wal.SnapshotChunk{LSN: lsn, Total: int64(len(p.data)), Data: chunk}, nil
}

// TestShippedIndexEqualsRebuilt: an indexed replica installs the index
// its primary ships and answers every identification as the primary
// does and as a replica that rebuilt its index does — candidates, score
// bits, shortlist size, matcher comparisons and index.Stats. Replicas
// rebuild, counted by reason, when the capture carries no segment (as
// one written before segments were shipped), a damaged one (rejected),
// or one of other templates (mismatch); the last two log a warning.
//
// The primary reopens from its log, so its index is one built base,
// then takes three removals and two enrollments: five templates' keys,
// at most 4,000 postings, stay under the index's merge floor (4,096),
// so at capture time it holds tombstoned base templates and delta
// templates, and the shipped segment is a merge built aside. Several
// blocks are the index package's TestSegmentEqualsBuildMultiBlock: the
// block size is fixed outside it.
func TestShippedIndexEqualsRebuilt(t *testing.T) {
	gal, probes := bulkFixtures(t)
	dir := t.TempDir()
	ws, err := wal.Open(dir, indexedGallery(t), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]gallery.Export, len(gal)-2)
	for i := range items {
		items[i] = gallery.Export{ID: subjectID(i), DeviceID: "D0", Template: gal[i]}
	}
	if err := ws.EnrollBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if ws, err = wal.Open(dir, indexedGallery(t), wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	for _, i := range []int{3, 50, 120} {
		if err := ws.Remove(subjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Enroll(subjectID(50), "D1", probes[0]); err != nil {
		t.Fatal(err)
	}
	stale := captureOf(t, ws)
	n := len(gal) - 1
	if err := ws.Enroll(subjectID(n), "D0", gal[n]); err != nil {
		t.Fatal(err)
	}
	full := captureOf(t, ws)
	_, _, segment, err := wal.DecodeSnapshot(full)
	if err != nil || segment == nil {
		t.Fatalf("the capture carries no segment (%v)", err)
	}
	_, _, staleSegment, err := wal.DecodeSnapshot(stale)
	if err != nil || staleSegment == nil {
		t.Fatalf("the stale capture carries no segment (%v)", err)
	}
	entries := full[:len(full)-len(segment)]
	rotten := bytes.Clone(full)
	rotten[len(rotten)-1] ^= 0xFF // the segment's checksum

	var logged bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logged, nil))
	for _, tc := range []struct {
		name    string
		primary matchsvc.Store
		reason  string // "" for an installed segment
	}{
		{name: "shipped", primary: ws},
		{name: "absent", primary: &fixedCapture{Store: ws, data: entries}, reason: "absent"},
		{name: "rejected", primary: &fixedCapture{Store: ws, data: rotten}, reason: "rejected"},
		{name: "mismatch", primary: &fixedCapture{Store: ws, data: slices.Concat(entries, staleSegment)}, reason: "mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replica := indexedGallery(t)
			f := NewFollower(replica, startPrimary(t, tc.primary), FollowerOptions{Logger: logger})
			if err := f.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			if f.restores.Value() != 1 || f.applied.Value() != 0 || f.LSN() != ws.LSN() {
				t.Fatalf("%d restores, %d records applied, lsn %d; want a snapshot bootstrap to %d",
					f.restores.Value(), f.applied.Value(), f.LSN(), ws.LSN())
			}
			for _, reason := range []string{"absent", "rejected", "mismatch"} {
				want := uint64(0)
				if reason == tc.reason {
					want = 1
				}
				if got := f.rebuilds.With("0", reason).Value(); got != want {
					t.Fatalf("replica_index_rebuilds_total{reason=%q} = %d, want %d", reason, got, want)
				}
			}
			warned := strings.Contains(logged.String(), "reason="+tc.reason)
			if want := tc.reason == "rejected" || tc.reason == "mismatch"; warned != want {
				t.Fatalf("warning logged %v, want %v:\n%s", warned, want, logged.String())
			}
			wantMirror(t, replica, ws)
			// The primary's tombstones and delta put its keys in
			// another order than a rebuild does: an installed segment
			// encodes back to the shipped bytes, a rebuilt index not.
			if installed := bytes.Equal(replica.AppendIndexSegment(nil), segment); installed != (tc.reason == "") {
				t.Fatalf("index encodes to the shipped segment: %v, want %v", installed, tc.reason == "")
			}
			got, _ := replica.IndexStats()
			if want, _ := ws.IndexStats(); got != want {
				t.Fatalf("index.Stats %+v, primary %+v", got, want)
			}
			sameRankings(t, tc.name, rankings(t, replica, probes), rankings(t, ws, probes))
			ctx := context.Background()
			served := 0
			for pi, probe := range probes {
				want, wantStats, err := ws.IdentifyDetailedContext(ctx, probe, 5)
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := replica.IdentifyDetailedContext(ctx, probe, 5)
				if err != nil {
					t.Fatal(err)
				}
				if gotStats != wantStats {
					t.Fatalf("probe %d: stats %+v, primary %+v", pi, gotStats, wantStats)
				}
				sameRankings(t, fmt.Sprintf("indexed, probe %d", pi), [][]gallery.Candidate{got}, [][]gallery.Candidate{want})
				if gotStats.Indexed {
					served++
				}
			}
			if served == 0 {
				t.Fatal("no probe was served from the index shortlist")
			}
		})
	}
}
