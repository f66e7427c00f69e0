package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
)

// applyTail replays shipped tail records onto a plain gallery the way
// a replica does, with WAL replay's idempotent semantics.
func applyTail(t *testing.T, g *gallery.Store, recs []Record) uint64 {
	t.Helper()
	var last uint64
	for _, rec := range recs {
		if rec.LSN <= last {
			t.Fatalf("tail records out of order: %d after %d", rec.LSN, last)
		}
		last = rec.LSN
		switch rec.Op {
		case OpEnroll:
			tpl, err := minutiae.Unmarshal(rec.Template)
			if err != nil {
				t.Fatal(err)
			}
			g.Remove(rec.ID)
			if err := g.Enroll(rec.ID, rec.DeviceID, tpl); err != nil {
				t.Fatal(err)
			}
		case OpRemove:
			g.Remove(rec.ID)
		default:
			t.Fatalf("unknown op %d", rec.Op)
		}
	}
	return last
}

func wantSameEntries(t *testing.T, got, want *gallery.Store) {
	t.Helper()
	ge, we := sortedExports(t, got), sortedExports(t, want)
	if len(ge) != len(we) {
		t.Fatalf("replica holds %d entries, primary %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i].ID != we[i].ID || ge[i].DeviceID != we[i].DeviceID {
			t.Fatalf("entry %d: (%q,%q) vs (%q,%q)", i, ge[i].ID, ge[i].DeviceID, we[i].ID, we[i].DeviceID)
		}
		if !sameTemplate(ge[i].Template, we[i].Template) {
			t.Fatalf("entry %q: templates differ", ge[i].ID)
		}
	}
}

// captureAll reads one whole sync capture as a replica does: a fresh
// chunk, then resumed chunks of at most max bytes at its LSN.
func captureAll(t *testing.T, s *Store, max int) (uint64, []byte) {
	t.Helper()
	first, err := s.SyncSnapshot(0, 0, max)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(first.Data)
	for int64(len(data)) < first.Total {
		chunk, err := s.SyncSnapshot(first.LSN, int64(len(data)), max)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.LSN != first.LSN || chunk.Total != first.Total || len(chunk.Data) == 0 {
			t.Fatalf("chunk at %d: lsn %d total %d, %d bytes; transfer began at lsn %d total %d",
				len(data), chunk.LSN, chunk.Total, len(chunk.Data), first.LSN, first.Total)
		}
		data = append(data, chunk.Data...)
	}
	return first.LSN, data
}

func TestSyncSnapshotRoundTrip(t *testing.T) {
	fx := fixtures(t, 6)
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	lsn, data := captureAll(t, s, 700)
	if lsn != s.LSN() {
		t.Fatalf("snapshot lsn %d, store lsn %d", lsn, s.LSN())
	}
	gotLSN, entries, segment, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotLSN != lsn || segment != nil {
		t.Fatalf("decoded lsn %d and a %d-byte segment, want %d and none (the store has no index)", gotLSN, len(segment), lsn)
	}
	replica := gallery.New(nil)
	if err := replica.ReplaceAll(entries); err != nil {
		t.Fatal(err)
	}
	wantSameEntries(t, replica, s.Store)

	// A resumed transfer at the capture's LSN must read the same bytes.
	again, err := s.SyncSnapshot(lsn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.LSN != lsn || !bytes.Equal(again.Data, data) {
		t.Fatal("resumed snapshot diverged from the original capture")
	}
	// A resume for a capture that never existed is expired, not a
	// silent fresh capture — the replica must restart deliberately.
	if _, err := s.SyncSnapshot(lsn+99, 0, 0); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("stale resume: err = %v, want ErrSnapshotExpired", err)
	}
	if _, err := s.SyncSnapshot(lsn, int64(len(data))+1, 0); err == nil || errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("offset past the capture: err = %v", err)
	}
}

// TestSyncSnapshotDropsServedCapture: a capture is not held once its
// last chunk is served. A transfer still reading it gets the same bytes
// made again while no mutation has been tried since; after one, even a
// failed one, the capture is expired.
func TestSyncSnapshotDropsServedCapture(t *testing.T) {
	fx := fixtures(t, 5)
	s := openIndexedStore(t, t.TempDir(), Options{})
	defer s.Close()
	for _, e := range fx[:4] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	lsn, data := captureAll(t, s, 4096)
	if s.syncSnapData != nil {
		t.Fatal("the capture is still held after its last chunk was served")
	}
	chunk, err := s.SyncSnapshot(lsn, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.LSN != lsn || chunk.Total != int64(len(data)) || !bytes.Equal(chunk.Data, data[100:600]) {
		t.Fatal("a capture made again differs from the one dropped")
	}
	if _, err := s.SyncSnapshot(lsn, 600, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("nobody"); err == nil {
		t.Fatal("removing an unknown ID succeeded")
	}
	if _, err := s.SyncSnapshot(lsn, 0, 0); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("resume after a failed mutation: err = %v, want ErrSnapshotExpired", err)
	}
	if err := s.Enroll(fx[4].ID, fx[4].DeviceID, fx[4].Template); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SyncSnapshot(lsn, 0, 0); !errors.Is(err, ErrSnapshotExpired) {
		t.Fatalf("resume after a write: err = %v, want ErrSnapshotExpired", err)
	}
}

// openIndexedStore opens a durable store over a gallery with an index.
func openIndexedStore(t testing.TB, dir string, opt Options) *Store {
	t.Helper()
	g := gallery.New(nil)
	if err := g.EnableIndex(gallery.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSyncCaptureCarriesIndexSegment: an indexed primary's capture is
// the capture an unindexed one makes of the same history, followed by
// the index segment, which decodes to the primary's index. The
// entries-only path a replica built before the segment existed took —
// the FPWS header, then gallery.ReadEntries with what follows the
// entries ignored — reads the same entries from it. Disk snapshots
// carry no segment.
func TestSyncCaptureCarriesIndexSegment(t *testing.T) {
	fx := fixtures(t, 8)
	indexed := openIndexedStore(t, t.TempDir(), Options{})
	defer indexed.Close()
	plain := openStore(t, t.TempDir(), Options{})
	defer plain.Close()
	for _, s := range []*Store{indexed, plain} {
		if err := s.EnrollBatch(fx[:6]); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(fx[1].ID); err != nil {
			t.Fatal(err)
		}
		if err := s.Enroll(fx[6].ID, fx[6].DeviceID, fx[6].Template); err != nil {
			t.Fatal(err)
		}
	}
	_, data := captureAll(t, indexed, 0)
	_, plainData := captureAll(t, plain, 0)
	lsn, entries, segment, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != indexed.LSN() || len(segment) == 0 || !bytes.Equal(data[:len(data)-len(segment)], plainData) {
		t.Fatalf("capture of %d bytes at lsn %d: a %d-byte segment behind the %d bytes an unindexed store captures",
			len(data), lsn, len(segment), len(plainData))
	}
	order := make([]string, len(entries))
	for i, e := range entries {
		order[i] = e.ID
	}
	ix, err := index.DecodeSegment(index.Options{}, segment, order)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := indexed.IndexStats(); ix.Stats() != st {
		t.Fatalf("segment decodes to %+v, primary holds %+v", ix.Stats(), st)
	}

	old, rest, err := gallery.ReadEntries(data[snapHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, segment) || len(old) != len(entries) {
		t.Fatalf("entries-only path: %d entries and %d bytes after them, want %d and the segment", len(old), len(rest), len(entries))
	}
	for i, e := range old {
		if e.ID != entries[i].ID || e.DeviceID != entries[i].DeviceID || !sameTemplate(e.Template, entries[i].Template) {
			t.Fatalf("entries-only path: entry %d is %q, DecodeSnapshot's %q", i, e.ID, entries[i].ID)
		}
	}

	if err := indexed.Compact(); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(indexed.dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if _, diskEntries, diskSegment, err := DecodeSnapshot(disk); err != nil || diskSegment != nil || len(diskEntries) != len(entries) {
		t.Fatalf("disk snapshot: %d entries and a %d-byte segment (%v); want %d and none", len(diskEntries), len(diskSegment), err, len(entries))
	}
}

func TestSyncSnapshotRecapturesAfterMutation(t *testing.T) {
	fx := fixtures(t, 4)
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	for _, e := range fx[:3] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	lsn1, _ := captureAll(t, s, 0)
	if err := s.Enroll(fx[3].ID, fx[3].DeviceID, fx[3].Template); err != nil {
		t.Fatal(err)
	}
	lsn2, data := captureAll(t, s, 0)
	if lsn2 != lsn1+1 {
		t.Fatalf("fresh capture at lsn %d, want %d", lsn2, lsn1+1)
	}
	_, entries, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("fresh capture holds %d entries, want 4", len(entries))
	}
}

func TestSyncTailPagesInOrder(t *testing.T) {
	fx := fixtures(t, 8)
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(fx[2].ID); err != nil {
		t.Fatal(err)
	}

	// A 1-byte budget forces one record per page (progress never
	// stalls on a large record), so every paging boundary is exercised.
	replica := gallery.New(nil)
	var after uint64
	pages := 0
	for {
		page, err := s.SyncTail(after, 1)
		if err != nil {
			t.Fatal(err)
		}
		if page.Truncated {
			t.Fatal("tail truncated on an uncompacted log")
		}
		if page.PrimaryLSN != s.LSN() {
			t.Fatalf("primary lsn %d, want %d", page.PrimaryLSN, s.LSN())
		}
		if len(page.Records) == 0 {
			break
		}
		after = applyTail(t, replica, page.Records)
		pages++
	}
	if pages != 9 {
		t.Fatalf("expected 9 single-record pages, got %d", pages)
	}
	if after != s.LSN() {
		t.Fatalf("caught up to lsn %d, primary at %d", after, s.LSN())
	}
	wantSameEntries(t, replica, s.Store)
}

func TestSyncTailTruncatedByCompaction(t *testing.T) {
	fx := fixtures(t, 5)
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	for _, e := range fx {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The compaction discarded LSNs 1..5: a replica behind that line
	// must be told to restart from a snapshot, not fed a silent gap.
	page, err := s.SyncTail(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Truncated {
		t.Fatal("tail below the compaction LSN not flagged truncated")
	}
	if len(page.Records) != 0 {
		t.Fatalf("truncated page carries %d records", len(page.Records))
	}
	// At the compaction line exactly, the (empty) tail is intact.
	page, err = s.SyncTail(s.LSN(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if page.Truncated || len(page.Records) != 0 {
		t.Fatalf("caught-up tail: truncated=%v records=%d", page.Truncated, len(page.Records))
	}
}

func TestSnapshotPlusTailBootstrap(t *testing.T) {
	fx := fixtures(t, 8)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	for _, e := range fx[:5] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	snapLSN, data := captureAll(t, s, 0)
	// Mutations land after the capture; the tail carries them.
	for _, e := range fx[5:] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(fx[0].ID); err != nil {
		t.Fatal(err)
	}

	_, entries, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	replica := gallery.New(nil)
	if err := replica.ReplaceAll(entries); err != nil {
		t.Fatal(err)
	}
	page, err := s.SyncTail(snapLSN, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if page.Truncated {
		t.Fatal("unexpected truncation")
	}
	if got := applyTail(t, replica, page.Records); got != s.LSN() {
		t.Fatalf("applied through lsn %d, primary at %d", got, s.LSN())
	}
	wantSameEntries(t, replica, s.Store)
}

// TestSyncTailVerifiesBeforeTrusting damages the live log behind an
// open store two ways that used to slip past the tail reader because it
// read a record's LSN before checking its length or checksum: a length
// prefix rotted below the 8 bytes of an LSN (a panic under the store's
// lock), and an LSN rotted below the replica's cursor (the record
// silently skipped, a page with a hole in it). Both must be errors.
func TestSyncTailVerifiesBeforeTrusting(t *testing.T) {
	fx := fixtures(t, 3)
	for _, tc := range []struct {
		name  string
		after uint64
		// damage returns where to write what, given record 2's offset.
		damage func(second int64) (int64, []byte)
	}{
		{"length below the LSN field", 0, func(int64) (int64, []byte) {
			return headerSize, []byte{0, 0, 0, 4}
		}},
		{"LSN below the cursor", 1, func(second int64) (int64, []byte) {
			return second + 8, make([]byte, 8)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Options{})
			defer s.Close()
			var second int64
			for i, e := range fx {
				if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					second = logSizeOnDisk(t, dir)
				}
			}
			if page, err := s.SyncTail(tc.after, 0); err != nil || len(page.Records) != 3-int(tc.after) {
				t.Fatalf("intact log: %d records, %v", len(page.Records), err)
			}
			off, b := tc.damage(second)
			corruptLog(t, dir, off, b)
			if page, err := s.SyncTail(tc.after, 0); err == nil {
				t.Fatalf("damaged log served a page of %d records", len(page.Records))
			}
		})
	}
}

// TestSyncTailBudgetCountsShippedRecords: the byte budget is for the
// records a page ships, not for the ones it passes over to reach the
// replica's cursor — or a replica deep into a long log would get one
// record per round trip.
func TestSyncTailBudgetCountsShippedRecords(t *testing.T) {
	fx := fixtures(t, 8)
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.EnrollBatch(fx); err != nil {
		t.Fatal(err)
	}
	size, err := s.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	budget := int(size) / 2 // about four records' worth
	fromStart, err := s.SyncTail(0, budget)
	if err != nil {
		t.Fatal(err)
	}
	fromMiddle, err := s.SyncTail(4, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromStart.Records) < 3 || len(fromMiddle.Records) < 3 {
		t.Fatalf("a four-record budget shipped %d records from the start, %d from LSN 4",
			len(fromStart.Records), len(fromMiddle.Records))
	}
}
