package minutiae

import (
	"testing"

	"fpinterop/internal/imgproc"
)

// flatField returns an orientation field with uniform horizontal ridges and
// full coherence, large enough for a w×h image.
func flatField(w, h int) *imgproc.OrientationField {
	bs := 16
	bw := (w + bs - 1) / bs
	bh := (h + bs - 1) / bs
	of := &imgproc.OrientationField{BlockSize: bs, BW: bw, BH: bh}
	of.Theta = make([][]float64, bh)
	of.Coherence = make([][]float64, bh)
	for y := 0; y < bh; y++ {
		of.Theta[y] = make([]float64, bw)
		of.Coherence[y] = make([]float64, bw)
		for x := 0; x < bw; x++ {
			of.Coherence[y][x] = 1
		}
	}
	return of
}

// setPix marks (x, y) as a skeleton pixel.
func setPix(b *imgproc.Binary, x, y int) { b.Pix[y*b.W+x] = true }

// drawLine sets skeleton pixels along a horizontal segment.
func drawLine(b *imgproc.Binary, x0, x1, y int) {
	for x := x0; x <= x1; x++ {
		setPix(b, x, y)
	}
}

func TestExtractFindsLineEnding(t *testing.T) {
	skel := imgproc.NewBinary(96, 64)
	// A long horizontal ridge whose endpoints are well inside the margin.
	drawLine(skel, 20, 70, 32)
	tp := Extract(skel, flatField(96, 64), 500, ExtractOptions{})
	endings := 0
	for _, m := range tp.Minutiae {
		if m.Kind == Ending {
			endings++
		}
	}
	if endings != 2 {
		t.Fatalf("got %d endings, want 2 (minutiae: %+v)", endings, tp.Minutiae)
	}
}

func TestExtractFindsBifurcation(t *testing.T) {
	skel := imgproc.NewBinary(96, 96)
	// Horizontal stem plus a diagonal branch leaving from (48, 48).
	drawLine(skel, 20, 75, 48)
	for i := 1; i <= 25; i++ {
		setPix(skel, 48+i, 48-i)
	}
	tp := Extract(skel, flatField(96, 96), 500, ExtractOptions{})
	bifs := 0
	for _, m := range tp.Minutiae {
		if m.Kind == Bifurcation {
			bifs++
		}
	}
	if bifs < 1 {
		t.Fatalf("found no bifurcation: %+v", tp.Minutiae)
	}
}

func TestExtractDropsBorderMinutiae(t *testing.T) {
	skel := imgproc.NewBinary(96, 64)
	// Ridge running into the left border: the border endpoint must be
	// dropped, the interior one kept.
	drawLine(skel, 0, 48, 32)
	tp := Extract(skel, flatField(96, 64), 500, ExtractOptions{})
	for _, m := range tp.Minutiae {
		if m.X < 12 {
			t.Fatalf("border minutia survived at %v", m.X)
		}
	}
}

func TestExtractRemovesShortSpur(t *testing.T) {
	skel := imgproc.NewBinary(96, 64)
	drawLine(skel, 20, 75, 32)
	// 3-pixel spur hanging off the ridge: its tip must not be an ending.
	setPix(skel, 47, 31)
	setPix(skel, 46, 30)
	setPix(skel, 45, 29)
	tp := Extract(skel, flatField(96, 64), 500, ExtractOptions{})
	for _, m := range tp.Minutiae {
		if m.Kind == Ending && m.Y < 31 {
			t.Fatalf("spur tip survived: %+v", m)
		}
	}
}

func TestExtractMergesFacingEndpoints(t *testing.T) {
	skel := imgproc.NewBinary(96, 64)
	// Broken ridge: two segments separated by a 3px gap produce two facing
	// endings that should annihilate.
	drawLine(skel, 20, 45, 32)
	drawLine(skel, 49, 75, 32)
	tp := Extract(skel, flatField(96, 64), 500, ExtractOptions{})
	for _, m := range tp.Minutiae {
		if m.X > 40 && m.X < 55 {
			t.Fatalf("facing endpoint survived at %+v", m)
		}
	}
}

func TestExtractEmptySkeleton(t *testing.T) {
	skel := imgproc.NewBinary(64, 64)
	tp := Extract(skel, flatField(64, 64), 500, ExtractOptions{})
	if tp.Count() != 0 {
		t.Fatal("empty skeleton produced minutiae")
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractResultValidates(t *testing.T) {
	skel := imgproc.NewBinary(96, 96)
	drawLine(skel, 20, 75, 48)
	for i := 1; i <= 25; i++ {
		setPix(skel, 48+i, 48-i)
	}
	tp := Extract(skel, flatField(96, 96), 500, ExtractOptions{})
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if tp.DPI != 500 || tp.Width != 96 {
		t.Fatal("metadata wrong")
	}
}

func TestExtractLowCoherenceFilter(t *testing.T) {
	skel := imgproc.NewBinary(96, 64)
	drawLine(skel, 20, 70, 32)
	of := flatField(96, 64)
	for y := range of.Coherence {
		for x := range of.Coherence[y] {
			of.Coherence[y][x] = 0.01 // everything unreliable
		}
	}
	tp := Extract(skel, of, 500, ExtractOptions{})
	if tp.Count() != 0 {
		t.Fatalf("low-coherence minutiae survived: %d", tp.Count())
	}
}
