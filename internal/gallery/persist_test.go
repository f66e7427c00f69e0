package gallery

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"fpinterop/internal/index"
)

// loadFrom replaces s's contents with a serialized gallery the way WAL
// recovery and replica bootstrap do: decode, then one bulk ReplaceAll.
func loadFrom(s *Store, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	entries, _, err := ReadEntries(data)
	if err != nil {
		return err
	}
	return s.ReplaceAll(entries)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, probes, ids := enrolledStore(t, 5, "D0", "D0")
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(nil)
	if err := loadFrom(restored, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d of %d entries", restored.Len(), s.Len())
	}
	// Identification behaves identically after the round trip.
	orig, err := s.IdentifyContext(context.Background(), probes[2], 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := restored.IdentifyContext(context.Background(), probes[2], 1)
	if err != nil {
		t.Fatal(err)
	}
	if orig[0].ID != back[0].ID {
		t.Fatalf("identification changed after round trip: %+v vs %+v", orig[0], back[0])
	}
	// The template codec quantizes coordinates to whole pixels and angles
	// to 16 bits, so scores may drift slightly — but not materially.
	if d := orig[0].Score - back[0].Score; d > 1.5 || d < -1.5 {
		t.Fatalf("score drift %v too large after round trip", d)
	}
	// Device metadata survives.
	cands, _ := restored.IdentifyContext(context.Background(), probes[0], 1)
	if cands[0].DeviceID != "D0" {
		t.Fatal("device metadata lost")
	}
	_ = ids
}

func TestLoadFromRejectsGarbage(t *testing.T) {
	s := New(nil)
	if err := loadFrom(s, strings.NewReader("not a gallery")); !errors.Is(err, ErrBadStoreFormat) {
		t.Fatalf("want ErrBadStoreFormat, got %v", err)
	}
}

func TestLoadFromTruncated(t *testing.T) {
	s, _, _ := enrolledStore(t, 3, "D0", "D0")
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{3, 6, 10, len(data) / 2, len(data) - 1} {
		fresh := New(nil)
		if err := loadFrom(fresh, bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func TestLoadFromBadVersion(t *testing.T) {
	s, _, _ := enrolledStore(t, 1, "D0", "D0")
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[5] = 99
	if err := loadFrom(New(nil), bytes.NewReader(data)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestSaveEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New(nil).SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(nil)
	if err := loadFrom(restored, &buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Fatal("empty store grew entries")
	}
}

func TestLoadFromRebuildsIndex(t *testing.T) {
	s, probes, _ := enrolledStore(t, 20, "D0", "D0")
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(nil)
	if err := restored.EnableIndex(IndexOptions{MinCandidates: 2}); err != nil {
		t.Fatal(err)
	}
	if st, _ := restored.IndexStats(); st.Templates != 0 {
		t.Fatalf("fresh index not empty: %+v", st)
	}
	if err := loadFrom(restored, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, ok := restored.IndexStats()
	if !ok || st.Templates != 20 || st.Postings == 0 {
		t.Fatalf("index not rebuilt by LoadFrom: %+v ok=%v", st, ok)
	}
	// Indexed and exhaustive identification agree on top-1 for the
	// round-tripped population.
	for i, p := range probes {
		indexed, stats, err := restored.IdentifyDetailedContext(context.Background(), p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Indexed {
			t.Fatalf("probe %d not served by the rebuilt index", i)
		}
		exhaustive, err := s.IdentifyContext(context.Background(), p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if indexed[0].ID != exhaustive[0].ID {
			t.Fatalf("probe %d: indexed top-1 %q, exhaustive top-1 %q",
				i, indexed[0].ID, exhaustive[0].ID)
		}
	}
	// A second load (e.g. restoring a different snapshot) replaces the
	// index contents instead of accumulating duplicates.
	if err := loadFrom(restored, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st, _ := restored.IndexStats(); st.Templates != 20 {
		t.Fatalf("index accumulated across loads: %+v", st)
	}
}

// TestReplaceAllWithIndex installs one store's index segment in another
// and gets an index that encodes to the same bytes, which a rebuilt one
// does not; a damaged segment
// (index.ErrBadSegment), one of other templates (index.ErrSegmentIDs)
// or a store with no index to take it fails and leaves the store as it
// was.
func TestReplaceAllWithIndex(t *testing.T) {
	s, _, _ := enrolledStore(t, 20, "D0", "D0")
	if got := s.AppendIndexSegment([]byte("x")); string(got) != "x" {
		t.Fatalf("a store without an index appended %d bytes", len(got)-1)
	}
	if err := s.EnableIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	// A re-enrollment leaves a tombstone and a delta template, so the
	// segment encodes a merge built aside, in another key order than a
	// build from the entries gives.
	e, _ := s.Get("subject-C")
	if err := s.Remove(e.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
		t.Fatal(err)
	}
	segment := s.AppendIndexSegment(nil)
	entries, _, err := ReadEntries(savedBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := New(nil)
	if err := rebuilt.EnableIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.ReplaceAll(entries); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rebuilt.AppendIndexSegment(nil), segment) {
		t.Fatal("a rebuilt index encodes to the shipped bytes: the test cannot tell an installed segment from a rebuild")
	}

	plain := New(nil)
	if err := plain.ReplaceAllWithIndex(entries, segment); err == nil || plain.Len() != 0 {
		t.Fatalf("a store without an index took a segment: err %v, %d entries", err, plain.Len())
	}
	restored := New(nil)
	if err := restored.EnableIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := restored.ReplaceAll(entries[:5]); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		entries []Export
		segment []byte
		want    error
	}{
		{"damaged", entries, segment[:len(segment)-1], index.ErrBadSegment},
		{"other templates", entries[1:], segment, index.ErrSegmentIDs},
	} {
		if err := restored.ReplaceAllWithIndex(tc.entries, tc.segment); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if st, _ := restored.IndexStats(); restored.Len() != 5 || st.Templates != 5 {
			t.Fatalf("%s: the failed replace left %d entries and %+v", tc.name, restored.Len(), st)
		}
	}
	if err := restored.ReplaceAllWithIndex(entries, segment); err != nil {
		t.Fatal(err)
	}
	if got := restored.AppendIndexSegment(nil); restored.Len() != 20 || !bytes.Equal(got, segment) {
		t.Fatalf("installed %d entries and an index encoding to %d bytes, want 20 and the %d shipped", restored.Len(), len(got), len(segment))
	}
}
