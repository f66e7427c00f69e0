package classify

import (
	"math"
	"testing"

	"fpinterop/internal/geom"
	"fpinterop/internal/imgproc"
	"fpinterop/internal/ridge"
	"fpinterop/internal/rng"
)

func masterOf(seed uint64, class ridge.Class) *ridge.Master {
	return ridge.Generate("c", rng.New(seed).Child("m"),
		ridge.GenOptions{ForceClass: class, MeanMinutiae: 10})
}

// classifyMaster runs the singular-point detector and the class rules on
// a master print's analytic orientation field, sampled over its pad in
// blockMM cells, so the detector is checked against ground truth
// without image synthesis.
func classifyMaster(m *ridge.Master, blockMM float64) (ridge.Class, []SingularPoint) {
	bw := int(m.Pad.Width()/blockMM) + 1
	bh := int(m.Pad.Height()/blockMM) + 1
	of := &imgproc.OrientationField{BlockSize: 1, BW: bw, BH: bh}
	of.Theta = make([][]float64, bh)
	of.Coherence = make([][]float64, bh)
	for by := 0; by < bh; by++ {
		of.Theta[by] = make([]float64, bw)
		of.Coherence[by] = make([]float64, bw)
		for bx := 0; bx < bw; bx++ {
			// Master space is y-up; field rows go y-down.
			p := geom.Point{
				X: m.Pad.MinX + (float64(bx)+0.5)*blockMM,
				Y: m.Pad.MaxY - (float64(by)+0.5)*blockMM,
			}
			// Image-space orientation flips the angle sign.
			of.Theta[by][bx] = math.Mod(-m.OrientationAt(p)+math.Pi, math.Pi)
			if m.InPad(p) {
				of.Coherence[by][bx] = 1
			}
		}
	}
	pts := DetectSingularPoints(of, 0.5)
	return ClassifyCounts(pts), pts
}

func TestClassifyMasterRecoversGroundTruthClass(t *testing.T) {
	cases := []ridge.Class{ridge.LeftLoop, ridge.RightLoop, ridge.Whorl, ridge.TentedArch, ridge.Arch}
	for _, want := range cases {
		hits := 0
		const trials = 10
		for i := uint64(0); i < trials; i++ {
			m := masterOf(100+i, want)
			got, _ := classifyMaster(m, 0.8)
			if got == want {
				hits++
			}
		}
		// The detector runs on a sampled field; allow a small error rate
		// but demand clear majority recovery per class.
		if hits < 7 {
			t.Fatalf("%v: recovered only %d/%d", want, hits, trials)
		}
	}
}

func TestClassifyMasterSingularPointCounts(t *testing.T) {
	m := masterOf(7, ridge.Whorl)
	_, pts := classifyMaster(m, 0.8)
	cores, deltas := 0, 0
	for _, p := range pts {
		if p.IsCore() {
			cores++
		} else {
			deltas++
		}
	}
	if cores < 2 {
		t.Fatalf("whorl: %d cores detected, want >= 2 (deltas %d)", cores, deltas)
	}
	m2 := masterOf(8, ridge.Arch)
	_, pts2 := classifyMaster(m2, 0.8)
	if len(pts2) != 0 {
		t.Fatalf("arch: %d singular points detected, want 0", len(pts2))
	}
}

func TestClassifyLoopSide(t *testing.T) {
	// Left and right loops must not be confused with each other.
	for i := uint64(0); i < 6; i++ {
		l, _ := classifyMaster(masterOf(300+i, ridge.LeftLoop), 0.8)
		if l == ridge.RightLoop {
			t.Fatalf("left loop classified as right loop (seed %d)", 300+i)
		}
		r, _ := classifyMaster(masterOf(400+i, ridge.RightLoop), 0.8)
		if r == ridge.LeftLoop {
			t.Fatalf("right loop classified as left loop (seed %d)", 400+i)
		}
	}
}

func TestClassifyCountsRules(t *testing.T) {
	core := SingularPoint{X: 50, Y: 50, Index: 0.5}
	cases := []struct {
		name   string
		points []SingularPoint
		want   ridge.Class
	}{
		{"none", nil, ridge.Arch},
		{"two cores", []SingularPoint{core, {X: 80, Y: 60, Index: 0.5}}, ridge.Whorl},
		{"two deltas", []SingularPoint{
			{X: 20, Y: 90, Index: -0.5}, {X: 80, Y: 90, Index: -0.5},
		}, ridge.Whorl},
		{"core + delta right", []SingularPoint{core, {X: 110, Y: 80, Index: -0.5}}, ridge.LeftLoop},
		{"core + delta left", []SingularPoint{core, {X: -10, Y: 80, Index: -0.5}}, ridge.RightLoop},
		{"core + delta below", []SingularPoint{core, {X: 52, Y: 140, Index: -0.5}}, ridge.TentedArch},
		{"lone core", []SingularPoint{core}, ridge.TentedArch},
	}
	for _, c := range cases {
		if got := ClassifyCounts(c.points); got != c.want {
			t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyImageOnSynthesizedPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("image synthesis is slow")
	}
	m := masterOf(55, ridge.Whorl)
	img, err := ridge.Synthesize(m, m.Pad, 250, ridge.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, pts := ClassifyImage(img, 0.3)
	// On rendered images the detector sees noise; accept whorl or a loop
	// (one core pair merged), reject arch (no structure found at all).
	if got == ridge.Arch {
		t.Fatalf("whorl image classified as arch (found %d points)", len(pts))
	}
}

func TestPoincareIndexSmoothFieldIsZero(t *testing.T) {
	m := masterOf(66, ridge.Arch)
	// Arch fields are singularity-free: every interior index ≈ 0.
	_, pts := classifyMaster(m, 0.8)
	if len(pts) != 0 {
		t.Fatalf("smooth field produced %d singular points", len(pts))
	}
}

func TestMergeNearby(t *testing.T) {
	pts := []SingularPoint{
		{X: 10, Y: 10, Index: 0.5},
		{X: 12, Y: 11, Index: 0.5},  // same cluster
		{X: 60, Y: 60, Index: 0.5},  // separate
		{X: 11, Y: 12, Index: -0.5}, // same spot, opposite sign: kept apart
	}
	out := mergeNearby(pts, 8)
	if len(out) != 3 {
		t.Fatalf("merged to %d points, want 3", len(out))
	}
}
