package gallery

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

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

// captures is n sensor captures of a seeded cohort on D0: sub-pixel
// coordinates, as an in-process enrollment has them.
func captures(t testing.TB, seed uint64, n int) []*minutiae.Template {
	t.Helper()
	cohort := population.NewCohort(rng.New(seed), population.CohortOptions{Size: n})
	d0, _ := sensor.ProfileByID("D0")
	out := make([]*minutiae.Template, n)
	for i, subj := range cohort.Subjects {
		imp, err := d0.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = imp.Template
	}
	return out
}

// TestStoreHeapPerEnrollment pins what an indexed store retains per
// enrollment: the preparation (points, grid, kinds and qualities —
// the one stored form), the index's share (its key table amortizes
// over only 2,000 templates here) and the store's map. It reads about
// 4,900 B; a per-entry template clone beside the preparation, as the
// store kept before, reads about 6,500 B and fails the 5,500 B bound.
func TestStoreHeapPerEnrollment(t *testing.T) {
	const n = 2000
	tpls := captures(t, 41, n)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s := New(nil)
	if err := s.EnableIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, tpl := range tpls {
		if err := s.Enroll(fmt.Sprintf("subject-%04d", i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(heap()-before) / n
	minutiaeTotal := 0
	for _, tpl := range tpls {
		minutiaeTotal += len(tpl.Minutiae)
	}
	t.Logf("%.0f B retained per enrollment (%.1f minutiae per template)", per, float64(minutiaeTotal)/n)
	if per >= 5500 {
		t.Errorf("store retains %.0f B per enrollment; want < 5,500", per)
	}
	runtime.KeepAlive(tpls)
	runtime.KeepAlive(s)
}

// TestStoredTemplateIsTheEnrolledOne: whatever the write path — Enroll,
// EnrollBatch, ReplaceAll — Get returns the template enrolled, bit for
// bit, and a store whose matcher is not the Hough matcher compares
// probes against exactly that template.
func TestStoredTemplateIsTheEnrolledOne(t *testing.T) {
	tpls := captures(t, 42, 6)
	probes := captures(t, 43, 2)
	items := make([]Export, len(tpls))
	byID := make(map[string]*minutiae.Template)
	for i, tpl := range tpls {
		items[i] = Export{ID: fmt.Sprintf("subject-%04d", i), DeviceID: "D0", Template: tpl}
		byID[items[i].ID] = tpl
	}
	greedy := &match.GreedyMatcher{}
	for _, w := range []struct {
		name  string
		write func(s *Store) error
	}{
		{"enroll", func(s *Store) error {
			for _, it := range items {
				if err := s.Enroll(it.ID, it.DeviceID, it.Template); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch", func(s *Store) error { return s.EnrollBatch(items) }},
		{"replace all", func(s *Store) error { return s.ReplaceAll(items) }},
	} {
		for _, m := range []match.Matcher{nil, greedy} {
			s := New(m)
			if err := w.write(s); err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				got, ok := s.Get(it.ID)
				if !ok || !sameTemplate(got.Template, it.Template) {
					t.Fatalf("%s, matcher %T: Get(%q) is not the enrolled template", w.name, m, it.ID)
				}
			}
			if m == nil {
				continue
			}
			for _, p := range probes {
				cands, err := s.IdentifyContext(context.Background(), p, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cands {
					want, err := greedy.Match(byID[c.ID], p)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(c.Score) != math.Float64bits(want.Score) {
						t.Fatalf("%s: %q scored %v, the greedy matcher on its template %v", w.name, c.ID, c.Score, want.Score)
					}
				}
			}
		}
	}
}
