package sensor

// Cross-path validation: the large-scale study runs on the template-level
// capture model, while tools and examples use the full image pipeline.
// These tests tie the two together statistically: the image path must
// preserve the same orderings (same-device genuine > cross-device genuine
// > impostor) and its measured NFIQ must track the template path's
// fidelity-derived quality.

import (
	"testing"

	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/nfiq"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

func TestImagePathPreservesScoreOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("image path is slow")
	}
	cohort := population.NewCohort(rng.New(515), population.CohortOptions{Size: 3})
	d0, _ := ProfileByID("D0")
	d1, _ := ProfileByID("D1")
	matcher := &match.HoughMatcher{}

	capture := func(subj *population.Subject, dev *Profile, sample int) *minutiae.Template {
		t.Helper()
		img, _, err := dev.CaptureImage(subj.Master(), subj.Traits,
			subj.CaptureSource(dev.ID+"/img", sample),
			CaptureOptions{SampleIndex: sample})
		if err != nil {
			t.Fatal(err)
		}
		tpl, err := minutiae.ExtractFromImage(img, dev.DPI, minutiae.ExtractOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tpl
	}

	alice := cohort.Subjects[0]
	bob := cohort.Subjects[1]

	galleryD0 := capture(alice, d0, 0)
	probeD0 := capture(alice, d0, 1)
	probeD1 := capture(alice, d1, 1)
	impostorD0 := capture(bob, d0, 0)

	score := func(g, p *minutiae.Template) float64 {
		res, err := matcher.Match(g, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Score
	}
	same := score(galleryD0, probeD0)
	cross := score(galleryD0, probeD1)
	imp := score(galleryD0, impostorD0)

	if same <= imp {
		t.Fatalf("image path: same-device genuine %v not above impostor %v", same, imp)
	}
	if cross <= imp {
		t.Fatalf("image path: cross-device genuine %v not above impostor %v", cross, imp)
	}
	if same <= cross {
		t.Fatalf("image path: same-device %v not above cross-device %v", same, cross)
	}
}

func TestImagePathQualityTracksTemplatePath(t *testing.T) {
	if testing.Short() {
		t.Skip("image path is slow")
	}
	cohort := population.NewCohort(rng.New(717), population.CohortOptions{Size: 2})
	subj := cohort.Subjects[0]
	d0, _ := ProfileByID("D0")
	d4, _ := ProfileByID("D4")

	assess := func(dev *Profile) (img nfiq.Class, tpl nfiq.Class) {
		t.Helper()
		im, _, err := dev.CaptureImage(subj.Master(), subj.Traits,
			subj.CaptureSource(dev.ID+"/q", 0), CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		imp, err := dev.CaptureSubject(subj, 0, CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return nfiq.ClassFromScore(nfiq.ExtractFeatures(im).Score()), imp.Quality
	}

	imgQ0, tplQ0 := assess(d0)
	imgQ4, tplQ4 := assess(d4)

	// Ink must not measure better than clean optical on either path.
	if imgQ4 < imgQ0 {
		t.Fatalf("image path: ink quality %v better than optical %v", imgQ4, imgQ0)
	}
	if tplQ4 < tplQ0 {
		t.Fatalf("template path: ink quality %v better than optical %v", tplQ4, tplQ0)
	}
	// The two paths agree to within two classes on the same capture
	// conditions (they share the latent fidelity model).
	diff := int(imgQ0) - int(tplQ0)
	if diff < -2 || diff > 2 {
		t.Fatalf("paths disagree on D0 quality: image %v vs template %v", imgQ0, tplQ0)
	}
}
