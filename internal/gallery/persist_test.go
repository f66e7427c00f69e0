package gallery

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

// loadFrom replaces s's contents with a serialized gallery the way WAL
// recovery and replica bootstrap do: decode, then one bulk ReplaceAll.
func loadFrom(s *Store, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	entries, err := ReadEntries(data)
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
