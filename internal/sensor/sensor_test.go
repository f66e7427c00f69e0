package sensor

import (
	"math"
	"testing"

	"fpinterop/internal/geom"
	"fpinterop/internal/match"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

func testCohort(size int) *population.Cohort {
	return population.NewCohort(rng.New(42), population.CohortOptions{Size: size})
}

func TestProfilesMatchTable1(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("expected 5 devices, got %d", len(ps))
	}
	wantIDs := []string{"D0", "D1", "D2", "D3", "D4"}
	for i, p := range ps {
		if p.ID != wantIDs[i] {
			t.Fatalf("device %d id %s", i, p.ID)
		}
		if p.DPI != 500 {
			t.Fatalf("%s: DPI %d, want 500 (Table 1)", p.ID, p.DPI)
		}
	}
	d3, _ := ProfileByID("D3")
	if d3.PlatenW != 40.6 || d3.PlatenH != 38.1 {
		t.Fatalf("D3 platen %vx%v, want 40.6x38.1 (Table 1)", d3.PlatenW, d3.PlatenH)
	}
	d0, _ := ProfileByID("D0")
	if d0.Model != "Cross Match Guardian R2" {
		t.Fatalf("D0 model %q", d0.Model)
	}
	if d3.ContactW >= d0.ContactW {
		t.Fatal("D3 (Seek II) must have the smallest contact area")
	}
}

func TestProfileByID(t *testing.T) {
	if _, ok := ProfileByID("D2"); !ok {
		t.Fatal("D2 not found")
	}
	if _, ok := ProfileByID("D9"); ok {
		t.Fatal("unknown device found")
	}
}

func TestLiveScanProfilesExcludeInk(t *testing.T) {
	ls := LiveScanProfiles()
	if len(ls) != 4 {
		t.Fatalf("live-scan count %d", len(ls))
	}
	for _, p := range ls {
		if p.Ink {
			t.Fatalf("%s marked ink", p.ID)
		}
	}
	d4, _ := ProfileByID("D4")
	if !d4.Ink {
		t.Fatal("D4 must be the ink path")
	}
}

func TestDistortDeterministicAndBounded(t *testing.T) {
	for _, p := range Profiles() {
		for i := 0; i < 100; i++ {
			pt := geom.Point{X: -9 + float64(i%10)*2, Y: -11 + float64(i/10)*2.4}
			a := p.Distort(pt)
			b := p.Distort(pt)
			if a != b {
				t.Fatalf("%s: Distort not deterministic", p.ID)
			}
			// Displacement bounded by amplitude (each axis can reach the
			// full amplitude, hence the √2) + scale error.
			d := a.Dist(pt)
			bound := p.DistortAmp*math.Sqrt2 + 0.02*pt.Dist(geom.Point{}) + 1e-9
			if d > bound {
				t.Fatalf("%s: displacement %v exceeds bound %v at %v", p.ID, d, bound, pt)
			}
		}
	}
}

func TestDistortFieldsDifferAcrossDevices(t *testing.T) {
	d0, _ := ProfileByID("D0")
	d1, _ := ProfileByID("D1")
	sum := 0.0
	n := 0
	for i := 0; i < 50; i++ {
		pt := geom.Point{X: -8 + float64(i%10)*1.8, Y: -10 + float64(i/10)*4}
		sum += d0.Distort(pt).Dist(d1.Distort(pt))
		n++
	}
	if mean := sum / float64(n); mean < 0.08 {
		t.Fatalf("mean inter-device warp %v mm too small to matter", mean)
	}
}

func TestDistortSmooth(t *testing.T) {
	p, _ := ProfileByID("D1")
	for i := 0; i < 100; i++ {
		pt := geom.Point{X: -8 + float64(i%10)*1.8, Y: -10 + float64(i/10)*2.2}
		q := pt.Add(geom.Point{X: 0.1, Y: 0.1})
		dd := p.Distort(pt).Dist(p.Distort(q))
		if dd > 0.35 {
			t.Fatalf("warp jump %v over 0.14mm step", dd)
		}
	}
}

func TestTemplateSize(t *testing.T) {
	d0, _ := ProfileByID("D0")
	w, h := d0.TemplateSize()
	// 16.5mm × 500dpi / 25.4 ≈ 325 px.
	if w < 300 || w > 350 || h < 380 || h > 430 {
		t.Fatalf("D0 template size %dx%d", w, h)
	}
}

func TestCaptureDeterministic(t *testing.T) {
	c := testCohort(3)
	s := c.Subjects[0]
	d0, _ := ProfileByID("D0")
	a, err := d0.CaptureSubject(s, 0, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d0.CaptureSubject(s, 0, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fidelity != b.Fidelity || a.Quality != b.Quality {
		t.Fatal("capture not deterministic")
	}
	if len(a.Template.Minutiae) != len(b.Template.Minutiae) {
		t.Fatal("minutiae counts differ between identical captures")
	}
	for i := range a.Template.Minutiae {
		if a.Template.Minutiae[i] != b.Template.Minutiae[i] {
			t.Fatal("minutiae differ between identical captures")
		}
	}
}

func TestCaptureSamplesDiffer(t *testing.T) {
	c := testCohort(3)
	s := c.Subjects[0]
	d0, _ := ProfileByID("D0")
	a, _ := d0.CaptureSubject(s, 0, CaptureOptions{})
	b, _ := d0.CaptureSubject(s, 1, CaptureOptions{})
	if a.Window == b.Window {
		t.Fatal("two samples used identical placement")
	}
}

func TestCaptureValidTemplates(t *testing.T) {
	c := testCohort(20)
	for _, p := range Profiles() {
		for _, s := range c.Subjects[:10] {
			imp, err := p.CaptureSubject(s, 0, CaptureOptions{})
			if err != nil {
				t.Fatalf("%s subject %d: %v", p.ID, s.ID, err)
			}
			if err := imp.Template.Validate(); err != nil {
				t.Fatalf("%s subject %d: %v", p.ID, s.ID, err)
			}
			if imp.SubjectID != s.ID || imp.DeviceID != p.ID {
				t.Fatal("metadata wrong")
			}
			if !imp.Quality.Valid() {
				t.Fatalf("invalid quality %v", imp.Quality)
			}
		}
	}
}

func TestCaptureMinutiaeCountsPlausible(t *testing.T) {
	c := testCohort(40)
	d0, _ := ProfileByID("D0")
	sum := 0
	for _, s := range c.Subjects {
		imp, err := d0.CaptureSubject(s, 0, CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sum += imp.Template.Count()
	}
	mean := float64(sum) / float64(len(c.Subjects))
	// Flat 500-dpi captures typically yield 25–50 usable minutiae.
	if mean < 18 || mean > 60 {
		t.Fatalf("mean minutiae per capture %v implausible", mean)
	}
}

func TestSeekIICapturesFewerMinutiae(t *testing.T) {
	c := testCohort(60)
	d0, _ := ProfileByID("D0")
	d3, _ := ProfileByID("D3")
	var sum0, sum3 int
	for _, s := range c.Subjects {
		a, _ := d0.CaptureSubject(s, 0, CaptureOptions{})
		b, _ := d3.CaptureSubject(s, 0, CaptureOptions{})
		sum0 += a.Template.Count()
		sum3 += b.Template.Count()
	}
	if sum3 >= sum0 {
		t.Fatalf("D3 (small area) captured %d total minutiae vs D0 %d", sum3, sum0)
	}
}

func TestInkFidelityLower(t *testing.T) {
	c := testCohort(60)
	d0, _ := ProfileByID("D0")
	d4, _ := ProfileByID("D4")
	var f0, f4 float64
	for _, s := range c.Subjects {
		a, _ := d0.CaptureSubject(s, 0, CaptureOptions{})
		b, _ := d4.CaptureSubject(s, 0, CaptureOptions{})
		f0 += a.Fidelity
		f4 += b.Fidelity
	}
	if f4 >= f0 {
		t.Fatalf("ink fidelity %v not below live-scan %v", f4, f0)
	}
}

func TestQualityTracksFidelity(t *testing.T) {
	c := testCohort(150)
	d1, _ := ProfileByID("D1")
	var hiQ, loQ float64
	var hiN, loN int
	for _, s := range c.Subjects {
		imp, _ := d1.CaptureSubject(s, 0, CaptureOptions{})
		if imp.Fidelity > 0.75 {
			hiQ += float64(imp.Quality)
			hiN++
		} else if imp.Fidelity < 0.5 {
			loQ += float64(imp.Quality)
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("fidelity extremes not represented in this cohort")
	}
	if hiQ/float64(hiN) >= loQ/float64(loN) {
		t.Fatal("NFIQ class does not track fidelity")
	}
}

func TestHabituationImprovesFidelity(t *testing.T) {
	c := testCohort(200)
	d2, _ := ProfileByID("D2")
	var s0, s1 float64
	for _, s := range c.Subjects {
		a, _ := d2.CaptureSubject(s, 0, CaptureOptions{})
		b, _ := d2.CaptureSubject(s, 1, CaptureOptions{})
		s0 += a.Fidelity
		s1 += b.Fidelity
	}
	if s1 <= s0 {
		t.Fatalf("habituation absent: sample1 %v <= sample0 %v", s1, s0)
	}
}

func TestCaptureNilMaster(t *testing.T) {
	d0, _ := ProfileByID("D0")
	if _, err := d0.Capture(nil, population.Traits{}, rng.New(1), CaptureOptions{}); err == nil {
		t.Fatal("expected error for nil master")
	}
}

func TestSameDeviceWarpCancelsAcrossCaptures(t *testing.T) {
	// The systematic warp is a function of the device only: the same
	// physical point maps identically in every capture on one device but
	// differently across devices. This is the interoperability mechanism.
	d0, _ := ProfileByID("D0")
	d1, _ := ProfileByID("D1")
	pt := geom.Point{X: 3.2, Y: -4.7}
	if d0.Distort(pt) != d0.Distort(pt) {
		t.Fatal("same-device warp not stable")
	}
	if d0.Distort(pt) == d1.Distort(pt) {
		t.Fatal("cross-device warps identical")
	}
}

func TestMeanCrossDeviceDisplacementExceedsNoise(t *testing.T) {
	// The relative warp between devices must be large enough to matter
	// relative to per-capture measurement noise (~0.1mm at good quality)
	// but smaller than a ridge period (~0.45mm) so matching still works.
	ids := []string{"D0", "D1", "D2", "D3"}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, _ := ProfileByID(ids[i])
			b, _ := ProfileByID(ids[j])
			sum, n := 0.0, 0
			for k := 0; k < 60; k++ {
				pt := geom.Point{X: -7 + float64(k%10)*1.5, Y: -9 + float64(k/10)*3.5}
				sum += a.Distort(pt).Dist(b.Distort(pt))
				n++
			}
			mean := sum / float64(n)
			if mean < 0.05 || mean > 1.2 {
				t.Fatalf("%s vs %s mean relative warp %v mm outside useful band", ids[i], ids[j], mean)
			}
		}
	}
}

func TestRescanNearlyIdentical(t *testing.T) {
	c := testCohort(5)
	d4, _ := ProfileByID("D4")
	s := c.Subjects[0]
	orig, err := d4.CaptureSubject(s, 0, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := d4.Rescan(orig, s.CaptureSource("D4-rescan", 1))
	if err != nil {
		t.Fatal(err)
	}
	if re.Window != orig.Window || re.Fidelity != orig.Fidelity {
		t.Fatal("rescan changed the physical impression")
	}
	if re.Sample != orig.Sample+1 {
		t.Fatal("rescan sample index wrong")
	}
	// Minutiae counts nearly identical (re-detection loses a few percent).
	lost := orig.Template.Count() - re.Template.Count()
	if lost < 0 || lost > orig.Template.Count()/4 {
		t.Fatalf("rescan lost %d of %d minutiae", lost, orig.Template.Count())
	}
	if err := re.Template.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRescanNil(t *testing.T) {
	d4, _ := ProfileByID("D4")
	if _, err := d4.Rescan(nil, rng.New(1)); err == nil {
		t.Fatal("expected error")
	}
}

func TestCaptureFinger(t *testing.T) {
	c := testCohort(3)
	s := c.Subjects[0]
	d0, _ := ProfileByID("D0")
	idx, err := d0.CaptureFinger(s, population.RightIndex, 0, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := d0.CaptureFinger(s, population.RightMiddle, 0, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Template.Count() == 0 || mid.Template.Count() == 0 {
		t.Fatal("empty finger captures")
	}
	// Different fingers of one subject must not match like the same finger.
	var m match.HoughMatcher
	same, err := m.Match(idx.Template, idx.Template)
	if err != nil {
		t.Fatal(err)
	}
	crossFinger, err := m.Match(idx.Template, mid.Template)
	if err != nil {
		t.Fatal(err)
	}
	if crossFinger.Score >= same.Score {
		t.Fatalf("different fingers matched as well as identity: %v vs %v",
			crossFinger.Score, same.Score)
	}
	if _, err := d0.CaptureFinger(s, population.Finger(99), 0, CaptureOptions{}); err == nil {
		t.Fatal("expected invalid finger error")
	}
}
