package calib

import (
	"testing"

	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/nfiq"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/stats"
)

// crossDevicePairs captures each subject once on each of two devices and
// returns the genuine cross-device template pairs.
func crossDevicePairs(t *testing.T, size int, galleryID, probeID string) []TemplatePair {
	t.Helper()
	cohort := population.NewCohort(rng.New(4242), population.CohortOptions{Size: size})
	g, _ := sensor.ProfileByID(galleryID)
	p, _ := sensor.ProfileByID(probeID)
	var out []TemplatePair
	for _, s := range cohort.Subjects {
		gi, err := g.CaptureSubject(s, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pi, err := p.CaptureSubject(s, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, TemplatePair{Gallery: gi.Template, Probe: pi.Template})
	}
	return out
}

func TestFitCalibration(t *testing.T) {
	pairs := crossDevicePairs(t, 40, "D0", "D1")
	cal, err := FitCalibration(&match.HoughMatcher{}, pairs[:25], CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cal.TrainingPairs < 10 {
		t.Fatalf("only %d training pairs matched", cal.TrainingPairs)
	}
	if cal.ControlPoints < 8 || cal.ControlPoints > 120 {
		t.Fatalf("control points %d outside bounds", cal.ControlPoints)
	}
}

func TestCalibrationImprovesCrossDeviceScores(t *testing.T) {
	// Train on the first 25 subjects, evaluate on the rest: the learned
	// warp correction should raise mean genuine cross-device scores —
	// the Ross–Nadgir result.
	pairs := crossDevicePairs(t, 60, "D0", "D1")
	base := &match.HoughMatcher{}
	cal, err := FitCalibration(base, pairs[:25], CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cm := &CalibratedMatcher{Base: base, Cal: cal}
	var plain, calibrated []float64
	for _, pair := range pairs[25:] {
		r1, err := base.Match(pair.Gallery, pair.Probe)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := cm.Match(pair.Gallery, pair.Probe)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, r1.Score)
		calibrated = append(calibrated, r2.Score)
	}
	pm, cmn := stats.Mean(plain), stats.Mean(calibrated)
	if cmn <= pm {
		t.Fatalf("calibration did not help: %v vs %v", cmn, pm)
	}
}

func TestCalibrationDoesNotInflateImpostors(t *testing.T) {
	pairs := crossDevicePairs(t, 40, "D0", "D1")
	base := &match.HoughMatcher{}
	cal, err := FitCalibration(base, pairs[:25], CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cm := &CalibratedMatcher{Base: base, Cal: cal}
	// Impostor pairs: gallery of subject i vs probe of subject i+1.
	maxScore := 0.0
	for i := 25; i < len(pairs)-1; i++ {
		r, err := cm.Match(pairs[i].Gallery, pairs[i+1].Probe)
		if err != nil {
			t.Fatal(err)
		}
		if r.Score > maxScore {
			maxScore = r.Score
		}
	}
	if maxScore >= 7 {
		t.Fatalf("calibrated impostor score %v reached genuine region", maxScore)
	}
}

func TestFitCalibrationErrors(t *testing.T) {
	if _, err := FitCalibration(nil, nil, CalibrationOptions{}); err == nil {
		t.Fatal("expected nil-matcher error")
	}
	if _, err := FitCalibration(&match.HoughMatcher{}, nil, CalibrationOptions{}); err == nil {
		t.Fatal("expected no-correspondence error")
	}
	// Pairs that never match well enough produce no correspondences.
	junk := []TemplatePair{{
		Gallery: &minutiae.Template{Width: 100, Height: 100, DPI: 500},
		Probe:   &minutiae.Template{Width: 100, Height: 100, DPI: 500},
	}}
	if _, err := FitCalibration(&match.HoughMatcher{}, junk, CalibrationOptions{}); err == nil {
		t.Fatal("expected insufficient-correspondence error")
	}
}

func TestCalibratedMatcherMissingParts(t *testing.T) {
	cm := &CalibratedMatcher{}
	if _, err := cm.Match(nil, nil); err == nil {
		t.Fatal("expected configuration error")
	}
}

func TestQualityNormFitAndApply(t *testing.T) {
	var training []ScoredComparison
	// Synthesize impostor scores whose location depends on quality:
	// poor-quality conditions produce slightly higher impostor scores.
	src := rng.New(7)
	for i := 0; i < 4000; i++ {
		qg := nfiq.Class(1 + src.Intn(5))
		qp := nfiq.Class(1 + src.Intn(5))
		base := 0.5 + 0.3*float64(qg+qp)
		training = append(training, ScoredComparison{
			Score:    base + src.NormMS(0, 0.4),
			QualityG: qg, QualityP: qp,
		})
	}
	qn, err := FitQualityNorm(training, 30)
	if err != nil {
		t.Fatal(err)
	}
	// A raw score of 2.0 is more alarming (higher z) under a good-quality
	// condition than under a poor-quality one.
	zGood := qn.Normalize(2.0, nfiq.Excellent, nfiq.Excellent)
	zPoor := qn.Normalize(2.0, nfiq.Poor, nfiq.Poor)
	if zGood <= zPoor {
		t.Fatalf("normalization ignores quality: %v vs %v", zGood, zPoor)
	}
	// Genuine training rows must be ignored.
	withGenuine := append(training, ScoredComparison{Score: 100, QualityG: 1, QualityP: 1, Genuine: true})
	qn2, err := FitQualityNorm(withGenuine, 30)
	if err != nil {
		t.Fatal(err)
	}
	if qn2.Normalize(2.0, 1, 1) != qn.Normalize(2.0, 1, 1) {
		t.Fatal("genuine rows leaked into impostor statistics")
	}
}

func TestQualityNormFallback(t *testing.T) {
	var training []ScoredComparison
	src := rng.New(9)
	for i := 0; i < 200; i++ {
		training = append(training, ScoredComparison{
			Score: src.NormMS(1, 0.3), QualityG: nfiq.Good, QualityP: nfiq.Good,
		})
	}
	qn, err := FitQualityNorm(training, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Unseen condition → global fallback, still finite.
	z := qn.Normalize(2, nfiq.Poor, nfiq.Poor)
	if z != qn.Normalize(2, nfiq.Fair, nfiq.Excellent) {
		t.Fatal("fallback should be condition-independent")
	}
	_ = z
}

func TestQualityNormErrors(t *testing.T) {
	if _, err := FitQualityNorm(nil, 30); err == nil {
		t.Fatal("expected insufficient-data error")
	}
}

func TestFusionRules(t *testing.T) {
	if FuseSum([]float64{4, 6}) != 5 {
		t.Fatal("sum rule wrong")
	}
	if FuseSum(nil) != 0 {
		t.Fatal("empty fusion should be 0")
	}
}
