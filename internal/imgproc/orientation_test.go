package imgproc

import (
	"math"
	"testing"
)

// ridgePattern builds a sinusoidal ridge image with ridge direction theta
// (ridges run along theta) and the given period in pixels.
func ridgePattern(w, h int, theta, period float64) *Image {
	im := NewImage(w, h)
	// Variation is perpendicular to the ridge direction.
	c, s := math.Cos(theta+math.Pi/2), math.Sin(theta+math.Pi/2)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := float64(x)*c + float64(y)*s
			im.Set(x, y, 0.5+0.5*math.Cos(2*math.Pi*d/period))
		}
	}
	return im
}

func orientationClose(a, b, tol float64) bool {
	d := math.Mod(a-b, math.Pi)
	if d < 0 {
		d += math.Pi
	}
	if d > math.Pi/2 {
		d = math.Pi - d
	}
	return d <= tol
}

func TestEstimateOrientationHorizontalRidges(t *testing.T) {
	// Ridges along x → orientation ~0.
	im := ridgePattern(64, 64, 0, 8)
	of := EstimateOrientation(im, 16)
	theta := of.ThetaAt(32, 32)
	if !orientationClose(theta, 0, 0.1) {
		t.Fatalf("horizontal ridge orientation = %v", theta)
	}
	if of.CoherenceAt(32, 32) < 0.8 {
		t.Fatalf("coherence %v too low for clean ridges", of.CoherenceAt(32, 32))
	}
}

func TestEstimateOrientationDiagonalRidges(t *testing.T) {
	im := ridgePattern(64, 64, math.Pi/4, 8)
	of := EstimateOrientation(im, 16)
	if theta := of.ThetaAt(32, 32); !orientationClose(theta, math.Pi/4, 0.1) {
		t.Fatalf("diagonal ridge orientation = %v", theta)
	}
}

func TestEstimateOrientationVerticalRidges(t *testing.T) {
	im := ridgePattern(64, 64, math.Pi/2, 8)
	of := EstimateOrientation(im, 16)
	if theta := of.ThetaAt(32, 32); !orientationClose(theta, math.Pi/2, 0.1) {
		t.Fatalf("vertical ridge orientation = %v", theta)
	}
}

func TestCoherenceLowOnNoise(t *testing.T) {
	im := NewImage(64, 64)
	// Deterministic pseudo-noise.
	seed := uint64(12345)
	for i := range im.Pix {
		seed = seed*6364136223846793005 + 1442695040888963407
		im.Pix[i] = float64(seed>>40) / float64(1<<24)
	}
	of := EstimateOrientation(im, 16)
	clean := ridgePattern(64, 64, 0, 8)
	ofClean := EstimateOrientation(clean, 16)
	if meanCoherence(of) >= meanCoherence(ofClean) {
		t.Fatalf("noise coherence %v not below clean %v",
			meanCoherence(of), meanCoherence(ofClean))
	}
}

// meanCoherence averages the coherence over every block.
func meanCoherence(of *OrientationField) float64 {
	sum, n := 0.0, 0
	for _, row := range of.Coherence {
		for _, c := range row {
			sum += c
			n++
		}
	}
	return sum / float64(n)
}

func TestSmoothRegularizesOutlierBlock(t *testing.T) {
	im := ridgePattern(96, 96, 0, 8)
	of := EstimateOrientation(im, 16)
	// Corrupt the centre block.
	of.Theta[3][3] = math.Pi / 2
	of.Smooth(1)
	if !orientationClose(of.Theta[3][3], 0, 0.2) {
		t.Fatalf("smoothing left outlier at %v", of.Theta[3][3])
	}
}

func TestThetaAtClampsOutOfRange(t *testing.T) {
	im := ridgePattern(32, 32, 0, 8)
	of := EstimateOrientation(im, 16)
	// Should not panic and should return valid orientations.
	for _, xy := range [][2]int{{-5, -5}, {100, 100}, {0, 100}} {
		th := of.ThetaAt(xy[0], xy[1])
		if th < 0 || th >= math.Pi+1e-9 {
			t.Fatalf("clamped ThetaAt out of range: %v", th)
		}
		_ = of.CoherenceAt(xy[0], xy[1])
	}
}

func TestEstimateFrequencyRecoversPeriod(t *testing.T) {
	const period = 8.0
	im := ridgePattern(96, 96, 0, period)
	of := EstimateOrientation(im, 16)
	f := EstimateFrequency(im, of, 48, 48, 48)
	if f <= 0 {
		t.Fatal("frequency estimation failed")
	}
	got := 1 / f
	if math.Abs(got-period) > 2 {
		t.Fatalf("estimated period %v, want ≈ %v", got, period)
	}
}

func TestEstimateFrequencyFlatRegion(t *testing.T) {
	im := NewImageFilled(64, 64, 0.5)
	of := EstimateOrientation(im, 16)
	if f := EstimateFrequency(im, of, 32, 32, 32); f != 0 {
		t.Fatalf("flat region frequency = %v, want 0", f)
	}
}

func TestEstimateOrientationTinyBlockSizeClamped(t *testing.T) {
	im := ridgePattern(16, 16, 0, 6)
	of := EstimateOrientation(im, 1) // clamped to 2
	if of.BlockSize != 2 {
		t.Fatalf("block size = %d, want clamp to 2", of.BlockSize)
	}
}
