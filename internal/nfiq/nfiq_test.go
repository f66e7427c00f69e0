package nfiq

import (
	"math"
	"testing"

	"fpinterop/internal/imgproc"
)

// cleanRidges builds a high-quality sinusoidal ridge image.
func cleanRidges(w, h int, period float64) *imgproc.Image {
	im := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, 0.5+0.45*math.Cos(2*math.Pi*float64(x)/period))
		}
	}
	return im
}

// noisyRidges corrupts a ridge image with strong deterministic noise.
func noisyRidges(w, h int, period, noise float64) *imgproc.Image {
	im := cleanRidges(w, h, period)
	seed := uint64(777)
	for i := range im.Pix {
		seed = seed*6364136223846793005 + 1442695040888963407
		im.Pix[i] += noise * (float64(seed>>40)/float64(1<<24) - 0.5)
	}
	return im.Clamp()
}

func TestClassValidity(t *testing.T) {
	for c := Excellent; c <= Poor; c++ {
		if !c.Valid() {
			t.Fatalf("%v should be valid", c)
		}
	}
	if Class(0).Valid() || Class(6).Valid() {
		t.Fatal("out-of-range classes reported valid")
	}
	if Excellent.String() != "NFIQ-1" {
		t.Fatal("class rendering wrong")
	}
}

// assess computes the NFIQ class of a fingerprint image.
func assess(img *imgproc.Image) Class {
	return ClassFromScore(ExtractFeatures(img).Score())
}

func TestCleanRidgesScoreWell(t *testing.T) {
	img := cleanRidges(128, 128, 9)
	c := assess(img)
	if c > VeryGood {
		t.Fatalf("clean ridges assessed %v, want NFIQ 1-2", c)
	}
}

func TestHeavyNoiseScoresWorseThanClean(t *testing.T) {
	clean := assess(cleanRidges(128, 128, 9))
	noisy := assess(noisyRidges(128, 128, 9, 1.4))
	if noisy <= clean {
		t.Fatalf("noisy image class %v not worse than clean %v", noisy, clean)
	}
}

func TestBlankImageScoresPoor(t *testing.T) {
	blank := imgproc.NewImageFilled(128, 128, 1)
	if c := assess(blank); c != Poor {
		t.Fatalf("blank image assessed %v, want NFIQ-5", c)
	}
}

func TestFeatureMonotonicityInNoise(t *testing.T) {
	// Score should decrease monotonically (weakly) as noise increases.
	prev := math.Inf(1)
	for _, noise := range []float64{0, 0.6, 1.2, 1.8} {
		s := ExtractFeatures(noisyRidges(128, 128, 9, noise)).Score()
		if s > prev+0.05 {
			t.Fatalf("score rose with noise: %v after %v", s, prev)
		}
		prev = s
	}
}

func TestExtractFeaturesRanges(t *testing.T) {
	f := ExtractFeatures(noisyRidges(96, 96, 9, 0.5))
	for name, v := range map[string]float64{
		"certainty": f.OrientationCertainty,
		"coverage":  f.ForegroundFraction,
		"freqvalid": f.RidgeFrequencyValid,
	} {
		if v < 0 || v > 1 {
			t.Fatalf("%s = %v out of [0,1]", name, v)
		}
	}
	if f.Contrast < 0 {
		t.Fatal("negative contrast")
	}
}

func TestClassFromScoreThresholds(t *testing.T) {
	cases := []struct {
		score float64
		want  Class
	}{
		{0.95, Excellent},
		{0.80, Excellent},
		{0.70, VeryGood},
		{0.55, Good},
		{0.40, Fair},
		{0.10, Poor},
	}
	for _, c := range cases {
		if got := ClassFromScore(c.score); got != c.want {
			t.Fatalf("ClassFromScore(%v) = %v, want %v", c.score, got, c.want)
		}
	}
}

func TestFromFidelityMonotone(t *testing.T) {
	prev := Poor + 1
	for _, phi := range []float64{0.1, 0.3, 0.45, 0.6, 0.75, 0.95} {
		c := FromFidelity(phi)
		if !c.Valid() {
			t.Fatalf("FromFidelity(%v) invalid", phi)
		}
		if c > prev {
			t.Fatalf("class got worse as fidelity rose: %v after %v", c, prev)
		}
		prev = c
	}
	if FromFidelity(0.95) != Excellent || FromFidelity(0.05) != Poor {
		t.Fatal("fidelity extremes misclassified")
	}
}

func TestRecaptureRecommendation(t *testing.T) {
	// NIST SP 800-76: reacquire when quality is worse than 3.
	if RecaptureRecommended(Good) {
		t.Fatal("NFIQ-3 should not trigger recapture")
	}
	if !RecaptureRecommended(Fair) || !RecaptureRecommended(Poor) {
		t.Fatal("NFIQ-4/5 must trigger recapture")
	}
}

func TestScoreBounded(t *testing.T) {
	f := Features{OrientationCertainty: 5, Contrast: 5, ForegroundFraction: 5, RidgeFrequencyValid: 5}
	if s := f.Score(); s != 1 {
		t.Fatalf("saturated score = %v, want 1", s)
	}
	if s := (Features{}).Score(); s != 0 {
		t.Fatalf("zero-feature score = %v, want 0", s)
	}
}
