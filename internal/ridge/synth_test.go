package ridge

import (
	"math"
	"testing"

	"fpinterop/internal/geom"
	"fpinterop/internal/imgproc"
	"fpinterop/internal/rng"
)

// smallWindow keeps synthesis tests fast: 8×8 mm at 250 dpi ≈ 79×79 px.
var smallWindow = geom.Rect{MinX: -4, MinY: -4, MaxX: 4, MaxY: 4}

func TestSynthesizeProducesRidgePattern(t *testing.T) {
	m := Generate("synth", rng.New(3).Child("m"), GenOptions{ForceClass: RightLoop})
	img, err := Synthesize(m, smallWindow, 250, SynthOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if img.W < 70 || img.H < 70 {
		t.Fatalf("unexpected size %dx%d", img.W, img.H)
	}
	// The pattern must be strongly bimodal: plenty of dark ridge pixels
	// and light valley pixels.
	dark, light := 0, 0
	for _, v := range img.Pix {
		if v < 0.25 {
			dark++
		} else if v > 0.75 {
			light++
		}
	}
	total := len(img.Pix)
	if dark < total/10 {
		t.Fatalf("too few ridge pixels: %d/%d", dark, total)
	}
	if light < total/10 {
		t.Fatalf("too few valley pixels: %d/%d", light, total)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	m := Generate("synth", rng.New(5).Child("m"), GenOptions{ForceClass: Whorl})
	a, err := Synthesize(m, smallWindow, 250, SynthOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(m, smallWindow, 250, SynthOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

func TestSynthesizeOrientationMatchesModel(t *testing.T) {
	// Grow an image and verify that the estimated orientation field of the
	// rendered ridges agrees with the master's analytic field.
	m := Generate("synth", rng.New(7).Child("m"), GenOptions{ForceClass: Arch})
	img, err := Synthesize(m, smallWindow, 250, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	of := imgproc.EstimateOrientation(img, 16)
	of.Smooth(1)
	pxPerMM := 250.0 / 25.4
	checked, agree := 0, 0
	for by := 1; by < of.BH-1; by++ {
		for bx := 1; bx < of.BW-1; bx++ {
			cx := float64(bx*16 + 8)
			cy := float64(by*16 + 8)
			p := geom.Point{
				X: smallWindow.MinX + cx/pxPerMM,
				Y: smallWindow.MaxY - cy/pxPerMM,
			}
			if !m.InPad(p) || of.Coherence[by][bx] < 0.3 {
				continue
			}
			// Master orientation in image space (y flip negates angle).
			want := math.Mod(-m.OrientationAt(p)+math.Pi, math.Pi)
			got := of.Theta[by][bx]
			if orientationDiff(got, want) < 0.35 {
				agree++
			}
			checked++
		}
	}
	if checked < 5 {
		t.Fatalf("too few coherent blocks to check: %d", checked)
	}
	if frac := float64(agree) / float64(checked); frac < 0.7 {
		t.Fatalf("only %.0f%% of blocks agree with the analytic field", frac*100)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	m := Generate("synth", rng.New(9).Child("m"), GenOptions{})
	if _, err := Synthesize(m, smallWindow, 0, SynthOptions{}); err == nil {
		t.Fatal("expected dpi error")
	}
	if _, err := Synthesize(m, geom.Rect{}, 250, SynthOptions{}); err == nil {
		t.Fatal("expected empty-window error")
	}
	tiny := geom.Rect{MinX: 0, MinY: 0, MaxX: 0.1, MaxY: 0.1}
	if _, err := Synthesize(m, tiny, 250, SynthOptions{}); err == nil {
		t.Fatal("expected too-small error")
	}
}

func TestSynthesizeOutsidePadIsWhite(t *testing.T) {
	m := Generate("synth", rng.New(11).Child("m"), GenOptions{})
	// Window hanging far off the pad's right edge.
	window := geom.Rect{MinX: 12, MinY: -4, MaxX: 20, MaxY: 4}
	img, err := Synthesize(m, window, 250, SynthOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range img.Pix {
		if v != 1 {
			t.Fatalf("off-pad pixel %v, want white", v)
		}
	}
}
