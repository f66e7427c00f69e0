package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
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

// Captured templates are the expensive fixture; build one shared set.
var (
	tplOnce   sync.Once
	tplGal    []*minutiae.Template // D0 sample 0 — enrollments
	tplProbes []*minutiae.Template // D1 sample 1 — cross-device probes
	tplErr    error
)

const tplCount = 16

func fixtures(t testing.TB) (gal, probes []*minutiae.Template) {
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

// startPrimary serves a WAL-backed store over a loopback listener and
// returns the store plus a connected client.
func startPrimary(t *testing.T, ws *wal.Store) *matchsvc.Client {
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

func TestFollowerTailsFromEmpty(t *testing.T) {
	gal, _ := fixtures(t)
	ws := openPrimary(t)
	cli := startPrimary(t, ws)
	local := gallery.New(nil)
	f := NewFollower(local, cli, FollowerOptions{})
	ctx := context.Background()

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
	if f.restores != nil && f.restores.Value() != 0 {
		t.Fatalf("tail-only catch-up performed %d snapshot restores", f.restores.Value())
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
	if !local.Has(subjectID(0)) {
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
	if err := ro.Enroll("x", "D0", gal[1]); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("enroll: %v", err)
	}
	if err := ro.Remove(subjectID(0)); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("remove: %v", err)
	}
	// The store's own EnrollBatch must not be promoted through the
	// wrapper: the wire server hands whole batches to its backend.
	batch := []gallery.Export{{ID: "y", DeviceID: "D0", Template: gal[1]}}
	if err := ro.EnrollBatch(batch); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("enroll batch: %v", err)
	}
	// Reads pass through to the wrapped store.
	if !ro.Has(subjectID(0)) {
		t.Fatal("read-only wrapper lost reads")
	}
	if ro.Len() != 1 {
		t.Fatal("len mismatch: a refused write went through")
	}
	// And the wrapper is what the wire server adapts: a store.
	var _ matchsvc.Store = ro
}
