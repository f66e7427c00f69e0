package imgproc

import (
	"math"
	"testing"
)

func TestSobelDetectsVerticalEdge(t *testing.T) {
	im := NewImage(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			im.Set(x, y, 1)
		}
	}
	gx, gy := Sobel(im)
	// Strong horizontal gradient at the edge, no vertical gradient.
	if gx.At(4, 4) <= 0.5 {
		t.Fatalf("gx at edge = %v", gx.At(4, 4))
	}
	if math.Abs(gy.At(4, 4)) > 1e-9 {
		t.Fatalf("gy at vertical edge = %v", gy.At(4, 4))
	}
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	im := NewImage(10, 10)
	for i := range im.Pix {
		if i%2 == 0 {
			im.Pix[i] = 0.2
		} else {
			im.Pix[i] = 0.8
		}
	}
	thr := OtsuThreshold(im)
	if thr <= 0.2 || thr >= 0.8 {
		t.Fatalf("Otsu threshold %v not between modes", thr)
	}
}

func TestOtsuEmptyImage(t *testing.T) {
	if thr := OtsuThreshold(NewImage(0, 0)); thr != 0.5 {
		t.Fatalf("empty Otsu = %v", thr)
	}
}

func TestBinarize(t *testing.T) {
	im := NewImage(2, 1)
	im.Pix[0] = 0.1 // dark = ridge = foreground
	im.Pix[1] = 0.9
	b := Binarize(im, 0.5)
	if !b.Pix[0] || b.Pix[1] {
		t.Fatal("Binarize convention wrong")
	}
}

func TestGaborKernelZeroDC(t *testing.T) {
	k := GaborKernel(0.3, 0.1, 4, 4)
	sum := 0.0
	for _, row := range k {
		for _, v := range row {
			sum += v
		}
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("Gabor DC component = %v", sum)
	}
}

func TestGaborRespondsToMatchingFrequency(t *testing.T) {
	// Build a vertical-ridge image (ridges along y, varying along x) with
	// period 8 px and check a Gabor tuned to it responds much more than an
	// orthogonal one.
	const period = 8.0
	im := NewImage(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			im.Set(x, y, 0.5+0.5*math.Cos(2*math.Pi*float64(x)/period))
		}
	}
	// Ridge direction is along y: theta = π/2.
	matched := GaborKernel(math.Pi/2, 1/period, 4, 4)
	orthogonal := GaborKernel(0, 1/period, 4, 4)
	rm := math.Abs(ApplyKernelAt(im, matched, 32, 32))
	ro := math.Abs(ApplyKernelAt(im, orthogonal, 32, 32))
	if rm < 4*ro {
		t.Fatalf("matched response %v not dominant over orthogonal %v", rm, ro)
	}
}

func TestApplyKernelAtBorder(t *testing.T) {
	im := NewImageFilled(4, 4, 1)
	k := [][]float64{
		{0, 0.25, 0},
		{0.25, 0, 0.25},
		{0, 0.25, 0},
	}
	// Replicate padding means the corner sees the same constant value.
	v := ApplyKernelAt(im, k, 0, 0)
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("border kernel value = %v, want 1", v)
	}
}
