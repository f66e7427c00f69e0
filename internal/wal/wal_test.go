package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// fixtures captures n distinct subjects on device D0.
func fixtures(t testing.TB, n int) []gallery.Export {
	t.Helper()
	cohort := population.NewCohort(rng.New(20130624), population.CohortOptions{Size: n})
	dev, ok := sensor.ProfileByID("D0")
	if !ok {
		t.Fatal("unknown device D0")
	}
	out := make([]gallery.Export, n)
	for i, subj := range cohort.Subjects {
		g, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = gallery.Export{
			ID:       fmt.Sprintf("subject-%04d", i),
			DeviceID: "D0",
			Template: g.Template,
		}
	}
	return out
}

func openStore(t testing.TB, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, gallery.New(nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// ids returns the store's enrolled IDs in lexicographic order.
func ids(t testing.TB, s *Store) []string {
	t.Helper()
	exps := sortedExports(t, s.Store)
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

func wantIDs(t *testing.T, s *Store, want ...string) {
	t.Helper()
	got := ids(t, s)
	if len(got) != len(want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

func TestOpenEmptyDir(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	// No snapshot existed: it held nothing and covered no LSN.
	rs := s.Recovery()
	if rs.Replayed != 0 || rs.TornTail || rs.SnapshotEntries != 0 || s.LSN() != 0 {
		t.Fatalf("recovery = %+v, lsn %d", rs, s.LSN())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEnrollRemoveSurviveReopen(t *testing.T) {
	fx := fixtures(t, 4)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(fx[1].ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantIDs(t, s2, fx[0].ID, fx[2].ID, fx[3].ID)
	rs := s2.Recovery()
	if rs.Replayed != 5 {
		t.Fatalf("Replayed = %d, want 5", rs.Replayed)
	}
	if rs.TornTail || rs.TruncatedBytes != 0 {
		t.Fatalf("unexpected torn tail: %+v", rs)
	}
	// Recovered entries must still match: verify one against itself.
	res, err := s2.VerifyContext(context.Background(), fx[0].ID, fx[0].Template)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatal("recovered template no longer verifies against its own capture")
	}
}

func TestCrashWithoutClose(t *testing.T) {
	fx := fixtures(t, 3)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate the process dying. Every commit fsyncs, so every
	// acknowledged enrollment is already on disk.
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantIDs(t, s2, fx[0].ID, fx[1].ID, fx[2].ID)
}

func TestCompactionResetsLogAndResumes(t *testing.T) {
	fx := fixtures(t, 6)
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 4})
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	// 6 enrollments with CompactEvery=4: one compaction fired, two
	// records remain in the log.
	size, err := s.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	rs := s2.Recovery()
	// The snapshot covers LSN 4: the records replayed above it are the
	// last of the store's six.
	if covered := s2.LSN() - uint64(rs.Replayed); covered != 4 {
		t.Fatalf("snapshot covers LSN %d (LSN %d, %d replayed), want 4", covered, s2.LSN(), rs.Replayed)
	}
	if rs.SnapshotEntries != 4 {
		t.Fatalf("SnapshotEntries = %d, want 4", rs.SnapshotEntries)
	}
	if rs.Replayed != 2 {
		t.Fatalf("Replayed = %d, want 2 (log size %d)", rs.Replayed, size)
	}
	wantIDs(t, s2, fx[0].ID, fx[1].ID, fx[2].ID, fx[3].ID, fx[4].ID, fx[5].ID)
	if s2.LSN() != 6 {
		t.Fatalf("LSN = %d, want 6", s2.LSN())
	}
}

func TestCrashBetweenSnapshotAndLogReset(t *testing.T) {
	fx := fixtures(t, 4)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	// Write the compaction snapshot but "crash" before the log reset:
	// both now cover the same four records.
	if err := writeSnapshot(filepath.Join(dir, snapName), s.LSN(), s.SaveTo); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	// The log still holds LSNs 1 to 4, and the snapshot covers them.
	rs := s2.Recovery()
	if rs.SnapshotEntries != 4 || rs.Replayed != 0 || s2.LSN() != 4 {
		t.Fatalf("records at or below the snapshot LSN must be skipped: %+v, lsn %d", rs, s2.LSN())
	}
	wantIDs(t, s2, fx[0].ID, fx[1].ID, fx[2].ID, fx[3].ID)
}

func TestDuplicateEnrollDoesNotLog(t *testing.T) {
	fx := fixtures(t, 1)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Enroll(fx[0].ID, "D0", fx[0].Template); err != nil {
		t.Fatal(err)
	}
	before, _ := s.LogSize()
	if err := s.Enroll(fx[0].ID, "D0", fx[0].Template); !errors.Is(err, gallery.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	after, _ := s.LogSize()
	if before != after {
		t.Fatal("rejected enrollment reached the log")
	}
	if err := s.Remove("nobody"); !errors.Is(err, gallery.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if sz, _ := s.LogSize(); sz != after {
		t.Fatal("rejected removal reached the log")
	}
	s.Close()
}

func TestDirectLoadBlocked(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.ReplaceAll(nil); !errors.Is(err, ErrDirectLoad) {
		t.Fatalf("ReplaceAll err = %v", err)
	}
}

func TestEnrollBatchSurvivesReopen(t *testing.T) {
	fx := fixtures(t, 5)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.EnrollBatch(fx); err != nil {
		t.Fatal(err)
	}
	if s.LSN() != 5 {
		t.Fatalf("LSN = %d, want 5", s.LSN())
	}
	// A batch containing a duplicate must roll back entirely.
	if err := s.EnrollBatch([]gallery.Export{
		{ID: "fresh", DeviceID: "D0", Template: fx[0].Template},
		{ID: fx[1].ID, DeviceID: "D0", Template: fx[1].Template},
	}); !errors.Is(err, gallery.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if _, ok := s.Get("fresh"); ok {
		t.Fatal("failed batch left a partial enrollment behind")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantIDs(t, s2, fx[0].ID, fx[1].ID, fx[2].ID, fx[3].ID, fx[4].ID)
}

// TestReplayIdempotentAndOrderPreserving drives a random mix of
// enrollments and removals against both the durable store and a plain
// in-memory model, then checks that (a) recovery reconstructs exactly
// the model state, and (b) replaying the same unchanged log again —
// opening the directory a second time — reconstructs the same state
// byte for byte. Replay must be a pure function of the files.
func TestReplayIdempotentAndOrderPreserving(t *testing.T) {
	fx := fixtures(t, 8)
	r := rng.New(42)
	for trial := 0; trial < 5; trial++ {
		dir := t.TempDir()
		s := openStore(t, dir, Options{})
		model := map[string]bool{}
		for step := 0; step < 60; step++ {
			e := fx[r.Intn(len(fx))]
			if r.Bool(0.35) {
				err := s.Remove(e.ID)
				if model[e.ID] != (err == nil) {
					t.Fatalf("trial %d step %d: remove %q err=%v, model has=%v",
						trial, step, e.ID, err, model[e.ID])
				}
				delete(model, e.ID)
			} else {
				err := s.Enroll(e.ID, e.DeviceID, e.Template)
				if model[e.ID] == (err == nil) {
					t.Fatalf("trial %d step %d: enroll %q err=%v, model has=%v",
						trial, step, e.ID, err, model[e.ID])
				}
				model[e.ID] = true
			}
		}
		want := ids(t, s)
		if len(want) != len(model) {
			t.Fatalf("trial %d: store has %d ids, model %d", trial, len(want), len(model))
		}
		for _, id := range want {
			if !model[id] {
				t.Fatalf("trial %d: store has %q, model does not", trial, id)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Two successive recoveries from the same files: both must
		// equal the live state, in the same scan order.
		for pass := 0; pass < 2; pass++ {
			s2 := openStore(t, dir, Options{})
			got := ids(t, s2)
			if len(got) != len(want) {
				t.Fatalf("trial %d pass %d: %d ids, want %d", trial, pass, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d pass %d: ids[%d] = %q, want %q",
						trial, pass, i, got[i], want[i])
				}
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// insertionOrder returns the store's IDs in insertion order: the order
// SaveTo writes, snapshots keep, and exhaustive scans visit.
func insertionOrder(t *testing.T, s *Store) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	entries, _, err := gallery.ReadEntries(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// TestReplayRemovesKeepInsertionOrder pins the order recovery rebuilds
// when the log removes entries from the head, the middle and the tail
// of what the snapshot and the earlier records hold, and re-enrolls
// some of them: survivors keep their relative order, and a re-enrolled
// ID moves to the end, exactly as in the store that wrote the log.
func TestReplayRemovesKeepInsertionOrder(t *testing.T) {
	fx := fixtures(t, 8)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	enroll := func(i int) {
		t.Helper()
		if err := s.Enroll(fx[i].ID, fx[i].DeviceID, fx[i].Template); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(i int) {
		t.Helper()
		if err := s.Remove(fx[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		enroll(i)
	}
	if err := s.Compact(); err != nil { // snapshot holds 0..5; the rest replays from the log
		t.Fatal(err)
	}
	enroll(6)
	enroll(7)
	remove(0) // head
	remove(3) // middle
	remove(7) // tail
	enroll(3) // back, at the end
	remove(6) // the new middle
	enroll(7)
	remove(1) // the new head
	want := []string{fx[2].ID, fx[4].ID, fx[5].ID, fx[3].ID, fx[7].ID}
	if got := insertionOrder(t, s); !slices.Equal(got, want) {
		t.Fatalf("live order = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if rs := s2.Recovery(); rs.SnapshotEntries != 6 || rs.Replayed != 9 {
		t.Fatalf("recovery = %+v, want 6 snapshot entries and 9 replayed records", rs)
	}
	if got := insertionOrder(t, s2); !slices.Equal(got, want) {
		t.Fatalf("recovered order = %v, want %v", got, want)
	}
}

// corruptLog opens the log file and overwrites length bytes at off.
func corruptLog(t *testing.T, dir string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func logSizeOnDisk(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	fx := fixtures(t, 3)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	var sizes []int64
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
		sz, err := s.LogSize()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, sz)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: cut the file a few bytes into it, as if
	// the process died mid-write.
	torn := sizes[1] + (sizes[2]-sizes[1])/3
	if err := os.Truncate(filepath.Join(dir, logName), torn); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	rs := s2.Recovery()
	if !rs.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rs.TruncatedBytes != torn-sizes[1] {
		t.Fatalf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, torn-sizes[1])
	}
	if rs.Replayed != 2 {
		t.Fatalf("Replayed = %d, want 2", rs.Replayed)
	}
	wantIDs(t, s2, fx[0].ID, fx[1].ID)
	if logSizeOnDisk(t, dir) != sizes[1] {
		t.Fatalf("log not truncated back to last good record: %d != %d",
			logSizeOnDisk(t, dir), sizes[1])
	}
	// The log must accept appends after truncation, and they must
	// survive the next recovery.
	if err := s2.Enroll(fx[2].ID, fx[2].DeviceID, fx[2].Template); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	wantIDs(t, s3, fx[0].ID, fx[1].ID, fx[2].ID)
}

func TestCorruptRecordEndsReplay(t *testing.T) {
	fx := fixtures(t, 3)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	var sizes []int64
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
		sz, err := s.LogSize()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, sz)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of record 2's body. Replay must keep
	// record 1, reject record 2 on checksum, and — because nothing
	// after a bad record can be ordered safely — drop record 3 too.
	corruptLog(t, dir, sizes[0]+40, []byte{0xFF})

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	rs := s2.Recovery()
	if !rs.TornTail {
		t.Fatal("corruption not flagged")
	}
	if rs.Replayed != 1 {
		t.Fatalf("Replayed = %d, want 1", rs.Replayed)
	}
	if rs.TruncatedBytes != sizes[2]-sizes[0] {
		t.Fatalf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, sizes[2]-sizes[0])
	}
	wantIDs(t, s2, fx[0].ID)
}

func TestCorruptLengthPrefixEndsReplay(t *testing.T) {
	fx := fixtures(t, 2)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// An implausible record length (first record's length prefix
	// blasted to ~4 GiB) must not make replay allocate or read past
	// the file.
	corruptLog(t, dir, headerSize, []byte{0xFF, 0xFF, 0xFF, 0xFF})

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	rs := s2.Recovery()
	if !rs.TornTail || rs.Replayed != 0 {
		t.Fatalf("recovery = %+v, want torn tail with 0 replayed", rs)
	}
	if s2.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s2.Len())
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("NOTALOG-at-all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, gallery.New(nil), Options{})
	if !errors.Is(err, ErrBadLogFormat) {
		t.Fatalf("err = %v, want ErrBadLogFormat", err)
	}
}

func TestTornHeaderStartsFresh(t *testing.T) {
	dir := t.TempDir()
	// A crash before the 6-byte header landed cannot have lost any
	// acknowledged record; the log restarts empty.
	if err := os.WriteFile(filepath.Join(dir, logName), []byte{0xAB, 0xCD}, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, Options{})
	defer s.Close()
	rs := s.Recovery()
	if !rs.TornTail || rs.TruncatedBytes != 2 {
		t.Fatalf("recovery = %+v", rs)
	}
	fx := fixtures(t, 1)
	if err := s.Enroll(fx[0].ID, fx[0].DeviceID, fx[0].Template); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	fx := fixtures(t, 2)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A mangled snapshot is unrecoverable silently — unlike a torn log
	// tail it may be missing arbitrary interior data — so Open must
	// refuse rather than serve a partial gallery.
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, gallery.New(nil), Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}
