package imgproc

import "testing"

func TestMedian3RemovesSaltNoise(t *testing.T) {
	im := NewImageFilled(9, 9, 0.8)
	im.Set(4, 4, 0) // isolated speck
	out := Median3(im)
	if out.At(4, 4) != 0.8 {
		t.Fatalf("speck survived: %v", out.At(4, 4))
	}
	// Constant regions unchanged.
	if out.At(1, 1) != 0.8 {
		t.Fatal("median changed flat region")
	}
}

func TestMedian3PreservesEdges(t *testing.T) {
	im := NewImage(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			im.Set(x, y, 1)
		}
	}
	out := Median3(im)
	if out.At(2, 4) != 0 || out.At(6, 4) != 1 {
		t.Fatal("median destroyed a step edge")
	}
}
