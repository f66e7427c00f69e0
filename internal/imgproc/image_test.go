package imgproc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewImageZero(t *testing.T) {
	im := NewImage(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("bad shape: %+v", im)
	}
	for _, v := range im.Pix {
		if v != 0 {
			t.Fatal("not zero-initialized")
		}
	}
}

func TestAtClampsBorders(t *testing.T) {
	im := NewImage(3, 3)
	im.Set(0, 0, 0.5)
	im.Set(2, 2, 0.9)
	if im.At(-5, -5) != 0.5 {
		t.Fatalf("top-left clamp: %v", im.At(-5, -5))
	}
	if im.At(10, 10) != 0.9 {
		t.Fatalf("bottom-right clamp: %v", im.At(10, 10))
	}
}

func TestSetOutOfBoundsIgnored(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(-1, 0, 1)
	im.Set(0, 5, 1)
	for _, v := range im.Pix {
		if v != 0 {
			t.Fatal("out-of-bounds Set wrote a pixel")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	im := NewImageFilled(2, 2, 0.5)
	c := im.Clone()
	c.Set(0, 0, 1)
	if im.At(0, 0) != 0.5 {
		t.Fatal("Clone shares storage")
	}
}

func TestClamp(t *testing.T) {
	im := NewImage(2, 1)
	im.Pix[0] = -0.5
	im.Pix[1] = 1.5
	im.Clamp()
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("Clamp = %v", im.Pix)
	}
}

func TestMeanStd(t *testing.T) {
	im := NewImage(2, 2)
	copy(im.Pix, []float64{0, 0, 1, 1})
	mean, std := im.MeanStd()
	if mean != 0.5 || math.Abs(std-0.5) > 1e-12 {
		t.Fatalf("mean=%v std=%v", mean, std)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	im := NewImage(0, 0)
	if m, s := im.MeanStd(); m != 0 || s != 0 {
		t.Fatal("empty image stats should be zero")
	}
}

func TestNormalize(t *testing.T) {
	im := NewImage(2, 2)
	copy(im.Pix, []float64{0, 0.2, 0.8, 1})
	im.Normalize(0.5, 0.1)
	mean, std := im.MeanStd()
	if math.Abs(mean-0.5) > 1e-9 || math.Abs(std-0.1) > 1e-9 {
		t.Fatalf("Normalize → mean=%v std=%v", mean, std)
	}
}

func TestNormalizeFlatImage(t *testing.T) {
	im := NewImageFilled(3, 3, 0.7)
	im.Normalize(0.4, 0.1)
	for _, v := range im.Pix {
		if v != 0.4 {
			t.Fatalf("flat normalize pixel = %v", v)
		}
	}
}

func TestHistogram(t *testing.T) {
	im := NewImage(1, 4)
	copy(im.Pix, []float64{0, 0.49, 0.51, 1.2})
	h := im.Histogram(2)
	if h[0] != 2 || h[1] != 2 {
		t.Fatalf("Histogram = %v", h)
	}
}

func TestSubImage(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(2, 2, 0.7)
	sub := im.SubImage(1, 1, 3, 3)
	if sub.At(1, 1) != 0.7 {
		t.Fatalf("SubImage content: %v", sub.At(1, 1))
	}
	if sub.W != 3 || sub.H != 3 {
		t.Fatal("SubImage shape wrong")
	}
}

func TestBilinearInterpolation(t *testing.T) {
	im := NewImage(2, 2)
	copy(im.Pix, []float64{0, 1, 0, 1})
	if got := im.Bilinear(0.5, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Bilinear mid = %v", got)
	}
	if got := im.Bilinear(0, 0); got != 0 {
		t.Fatalf("Bilinear corner = %v", got)
	}
}

func TestBinaryAt(t *testing.T) {
	b := NewBinary(3, 3)
	setPix(b, 1, 1)
	if !b.At(1, 1) || b.At(0, 0) {
		t.Fatal("binary At wrong")
	}
	if b.At(-1, 0) || b.At(5, 5) {
		t.Fatal("out of bounds should be false")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	im := NewImage(5, 3)
	for i := range im.Pix {
		im.Pix[i] = float64(i) / float64(len(im.Pix)-1)
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != 5 || back.H != 3 {
		t.Fatal("round-trip shape wrong")
	}
	for i := range im.Pix {
		if math.Abs(back.Pix[i]-im.Pix[i]) > 1.0/255+1e-9 {
			t.Fatalf("pixel %d: %v vs %v", i, back.Pix[i], im.Pix[i])
		}
	}
}

func TestReadPGMAscii(t *testing.T) {
	src := "P2\n# a comment\n2 2\n255\n0 255\n128 64\n"
	im, err := ReadPGM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("ascii pixels: %v", im.Pix)
	}
	if math.Abs(im.Pix[2]-128.0/255) > 1e-9 {
		t.Fatalf("mid pixel: %v", im.Pix[2])
	}
}

func TestReadPGMErrors(t *testing.T) {
	cases := []string{
		"",
		"P6\n2 2\n255\n",
		"P5\n0 2\n255\n",
		"P5\n2 2\n255\nxx", // truncated pixels
	}
	for _, src := range cases {
		if _, err := ReadPGM(strings.NewReader(src)); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestPGMWriteClampsRange(t *testing.T) {
	im := NewImage(2, 1)
	im.Pix[0] = -1
	im.Pix[1] = 2
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pix[0] != 0 || back.Pix[1] != 1 {
		t.Fatalf("clamped write = %v", back.Pix)
	}
}

func TestPGMPropertyRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		w := len(raw)
		if w > 32 {
			w = 32
		}
		im := NewImage(w, 1)
		for i := 0; i < w; i++ {
			im.Pix[i] = float64(raw[i]) / 255
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, im); err != nil {
			return false
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < w; i++ {
			if math.Abs(back.Pix[i]-im.Pix[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
