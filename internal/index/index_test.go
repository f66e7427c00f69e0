package index

import (
	"fmt"
	"math"
	"testing"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// captureSample captures one impression per cohort subject on deviceID.
func captureSample(t testing.TB, cohort *population.Cohort, deviceID string, sample int) []*minutiae.Template {
	t.Helper()
	dev, ok := sensor.ProfileByID(deviceID)
	if !ok {
		t.Fatalf("unknown device %s", deviceID)
	}
	out := make([]*minutiae.Template, len(cohort.Subjects))
	for i, s := range cohort.Subjects {
		imp, err := dev.CaptureSubject(s, sample, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = imp.Template
	}
	return out
}

// captureGallery builds the gallery impressions (sample 0) on deviceID.
func captureGallery(t testing.TB, cohort *population.Cohort, deviceID string) []*minutiae.Template {
	t.Helper()
	return captureSample(t, cohort, deviceID, 0)
}

func subjectID(i int) string { return fmt.Sprintf("subject-%04d", i) }

// keysFrom is Build's keys argument over a template list.
func keysFrom(tpls []*minutiae.Template) func(i int) []uint64 {
	return func(i int) []uint64 { return AppendKeys(nil, tpls[i]) }
}

// transformTemplate applies a rigid rotation about the origin plus a
// translation to every minutia, without clipping to any window.
func transformTemplate(tpl *minutiae.Template, theta, tx, ty float64) *minutiae.Template {
	out := tpl.Clone()
	c, s := math.Cos(theta), math.Sin(theta)
	for i, m := range out.Minutiae {
		out.Minutiae[i].X = m.X*c - m.Y*s + tx
		out.Minutiae[i].Y = m.X*s + m.Y*c + ty
		out.Minutiae[i].Angle = minutiae.NormalizeAngle(m.Angle + theta)
	}
	return out
}

func TestTripletFeaturesRigidInvariance(t *testing.T) {
	cohort := population.NewCohort(rng.New(11), population.CohortOptions{Size: 1})
	tpl := captureGallery(t, cohort, "D0")[0]
	if tpl.Count() < 10 {
		t.Fatalf("capture produced only %d minutiae", tpl.Count())
	}
	moved := transformTemplate(tpl, 0.7, 31.5, -12.25)
	ms, mt := tpl.Minutiae, moved.Minutiae
	checked := 0
	for i := 0; i+2 < len(ms) && checked < 50; i += 3 {
		f1, ok1 := features(ms[i], ms[i+1], ms[i+2])
		f2, ok2 := features(mt[i], mt[i+1], mt[i+2])
		if ok1 != ok2 {
			t.Fatalf("triplet %d validity changed under rigid motion", i)
		}
		if !ok1 {
			continue
		}
		checked++
		for k := 0; k < 3; k++ {
			if d := math.Abs(f1.sides[k] - f2.sides[k]); d > 1e-6 {
				t.Fatalf("side %d drifted by %v under rigid motion", k, d)
			}
			db := math.Abs(f1.betas[k] - f2.betas[k])
			if db > math.Pi {
				db = 2*math.Pi - db
			}
			if db > 1e-6 {
				t.Fatalf("vertex angle %d drifted by %v under rigid motion", k, db)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no valid triplets checked")
	}
}

func TestFeaturesInputOrderInvariance(t *testing.T) {
	a := minutiae.Minutia{X: 10, Y: 20, Angle: 1, Kind: minutiae.Ending}
	b := minutiae.Minutia{X: 60, Y: 25, Angle: 2, Kind: minutiae.Ending}
	c := minutiae.Minutia{X: 30, Y: 70, Angle: 3, Kind: minutiae.Ending}
	ref, ok := features(a, b, c)
	if !ok {
		t.Fatal("reference triplet rejected")
	}
	for _, perm := range [][3]minutiae.Minutia{{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
		f, ok := features(perm[0], perm[1], perm[2])
		if !ok {
			t.Fatal("permuted triplet rejected")
		}
		if f != ref {
			t.Fatalf("features depend on input order: %+v vs %+v", f, ref)
		}
	}
}

func TestFeaturesRejectDegenerate(t *testing.T) {
	a := minutiae.Minutia{X: 10, Y: 10, Angle: 1}
	near := minutiae.Minutia{X: 11, Y: 10, Angle: 1} // 1px away: under MinSide
	far := minutiae.Minutia{X: 500, Y: 500, Angle: 1}
	ok1 := false
	if _, ok1 = features(a, near, minutiae.Minutia{X: 60, Y: 60, Angle: 2}); ok1 {
		t.Fatal("near-degenerate triangle accepted")
	}
	if _, ok := features(a, far, minutiae.Minutia{X: 60, Y: 60, Angle: 2}); ok {
		t.Fatal("over-spread triangle accepted")
	}
}

func TestAddRemoveLifecycle(t *testing.T) {
	cohort := population.NewCohort(rng.New(12), population.CohortOptions{Size: 6})
	tpls := captureGallery(t, cohort, "D0")
	ix := New(Options{})
	for i, tpl := range tpls {
		if err := ix.Add(subjectID(i), tpl); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.Stats().Templates; n != 6 {
		t.Fatalf("templates = %d", n)
	}
	if err := ix.Add(subjectID(0), tpls[0]); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if err := ix.Add("nil", nil); err == nil {
		t.Fatal("nil template accepted")
	}
	for i := range tpls {
		if err := ix.Remove(subjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Remove(subjectID(0)); err == nil {
		t.Fatal("double Remove accepted")
	}
	st := ix.Stats()
	if st.Templates != 0 || st.Postings != 0 || st.DistinctKeys != 0 {
		t.Fatalf("index not empty after removing everything: %+v", st)
	}
	if got := ix.Candidates(tpls[0], 5); len(got) != 0 {
		t.Fatalf("empty index returned %d candidates", len(got))
	}
	// Slots are reusable after removal.
	if err := ix.Add(subjectID(0), tpls[0]); err != nil {
		t.Fatal(err)
	}
	cands := ix.Candidates(tpls[0], 5)
	if len(cands) != 1 || cands[0].ID != subjectID(0) {
		t.Fatalf("re-added template not retrieved: %+v", cands)
	}
}

func TestRemoveRestoresBuckets(t *testing.T) {
	cohort := population.NewCohort(rng.New(13), population.CohortOptions{Size: 40})
	tpls := captureGallery(t, cohort, "D0")
	ix := New(Options{})
	for i := 0; i < 3; i++ {
		if err := ix.Add(subjectID(i), tpls[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Stats()
	// Enough templates to fold the first three into a base segment, so
	// the removals below hit delta postings and base tombstones alike.
	base := ix.base
	for i := 3; i < len(tpls); i++ {
		if err := ix.Add(subjectID(i), tpls[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ix.base == base {
		t.Fatal("no merge happened; the test no longer covers the base segment")
	}
	for i := 3; i < len(tpls); i++ {
		if err := ix.Remove(subjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := ix.Stats()
	if before != after {
		t.Fatalf("Add+Remove not a no-op on stats: %+v vs %+v", before, after)
	}
}

func TestCandidatesDeterministicAcrossAddOrder(t *testing.T) {
	cohort := population.NewCohort(rng.New(15), population.CohortOptions{Size: 30})
	tpls := captureGallery(t, cohort, "D0")
	fwd := New(Options{})
	rev := New(Options{})
	for i := range tpls {
		if err := fwd.Add(subjectID(i), tpls[i]); err != nil {
			t.Fatal(err)
		}
		j := len(tpls) - 1 - i
		if err := rev.Add(subjectID(j), tpls[j]); err != nil {
			t.Fatal(err)
		}
	}
	d1, _ := sensor.ProfileByID("D1")
	for i := 0; i < 5; i++ {
		imp, err := d1.CaptureSubject(cohort.Subjects[i], 1, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a := fwd.Candidates(imp.Template, 10)
		b := rev.Candidates(imp.Template, 10)
		if len(a) != len(b) {
			t.Fatalf("shortlist length differs across insertion order: %d vs %d", len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("candidate %d differs across insertion order: %+v vs %+v", k, a[k], b[k])
			}
		}
	}
}

func TestCandidatesTinyProbe(t *testing.T) {
	cohort := population.NewCohort(rng.New(16), population.CohortOptions{Size: 3})
	tpls := captureGallery(t, cohort, "D0")
	ix := New(Options{})
	for i, tpl := range tpls {
		if err := ix.Add(subjectID(i), tpl); err != nil {
			t.Fatal(err)
		}
	}
	tiny := &minutiae.Template{Width: 100, Height: 100, DPI: 500,
		Minutiae: []minutiae.Minutia{{X: 10, Y: 10, Angle: 1, Kind: minutiae.Ending},
			{X: 40, Y: 40, Angle: 2, Kind: minutiae.Ending}}}
	if got := ix.Candidates(tiny, 5); len(got) != 0 {
		t.Fatalf("two-minutiae probe retrieved %d candidates", len(got))
	}
	if got := ix.Candidates(nil, 5); got != nil {
		t.Fatal("nil probe retrieved candidates")
	}
	// A template with <3 minutiae can still be indexed and removed.
	if err := ix.Add("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove("tiny"); err != nil {
		t.Fatal(err)
	}
}

func TestShortlistRecallSyntheticPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("recall experiment needs a few hundred captures")
	}
	const n = 300
	const probes = 100
	cohort := population.NewCohort(rng.New(17), population.CohortOptions{Size: n})
	tpls := captureGallery(t, cohort, "D0")
	ix := New(Options{})
	for i, tpl := range tpls {
		if err := ix.Add(subjectID(i), tpl); err != nil {
			t.Fatal(err)
		}
	}
	for _, probeDev := range []string{"D0", "D1"} {
		dev, _ := sensor.ProfileByID(probeDev)
		hits := 0
		for i := 0; i < probes; i++ {
			imp, err := dev.CaptureSubject(cohort.Subjects[i], 1, sensor.CaptureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ix.Candidates(imp.Template, 0) {
				if c.ID == subjectID(i) {
					hits++
					break
				}
			}
		}
		recall := float64(hits) / float64(probes)
		t.Logf("%s probes: shortlist recall %.3f", probeDev, recall)
		min := 0.95
		if probeDev != "D0" {
			min = 0.90 // cross-device capture suffers the relative warp
		}
		if recall < min {
			t.Fatalf("%s shortlist recall %.3f below %.2f", probeDev, recall, min)
		}
	}
}

func TestFanoutTruncation(t *testing.T) {
	cohort := population.NewCohort(rng.New(19), population.CohortOptions{Size: 20})
	tpls := captureGallery(t, cohort, "D0")
	ix := New(Options{})
	for i, tpl := range tpls {
		if err := ix.Add(subjectID(i), tpl); err != nil {
			t.Fatal(err)
		}
	}
	d0, _ := sensor.ProfileByID("D0")
	imp, err := d0.CaptureSubject(cohort.Subjects[0], 1, sensor.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Candidates(imp.Template, 3); len(got) > 3 {
		t.Fatalf("fanout 3 returned %d candidates", len(got))
	}
	full := ix.Candidates(imp.Template, 0)
	if len(full) > ix.Options().Fanout {
		t.Fatalf("default fanout exceeded: %d", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].Score > full[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
}
