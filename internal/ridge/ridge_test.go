package ridge

import (
	"math"
	"testing"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/rng"
)

// orientationDiff is the smallest absolute difference between two ridge
// orientations, which live on the half-circle [0, π).
func orientationDiff(a, b float64) float64 {
	d := math.Mod(a-b, math.Pi)
	if d < 0 {
		d += math.Pi
	}
	return math.Min(d, math.Pi-d)
}

func testMaster(t *testing.T, seed uint64, opts GenOptions) *Master {
	t.Helper()
	return Generate("test", rng.New(seed).Child("master"), opts)
}

func TestGenerateDeterministic(t *testing.T) {
	a := testMaster(t, 7, GenOptions{})
	b := testMaster(t, 7, GenOptions{})
	if a.Class != b.Class || a.PeriodMM != b.PeriodMM {
		t.Fatal("same seed produced different masters")
	}
	if len(a.Minutiae) != len(b.Minutiae) {
		t.Fatal("minutiae counts differ")
	}
	for i := range a.Minutiae {
		if a.Minutiae[i] != b.Minutiae[i] {
			t.Fatalf("minutia %d differs", i)
		}
	}
}

func TestGenerateDistinctSeeds(t *testing.T) {
	a := testMaster(t, 1, GenOptions{})
	b := testMaster(t, 2, GenOptions{})
	if a.PeriodMM == b.PeriodMM && len(a.Minutiae) == len(b.Minutiae) {
		same := true
		for i := range a.Minutiae {
			if i >= len(b.Minutiae) || a.Minutiae[i] != b.Minutiae[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical masters")
		}
	}
}

func TestClassFrequenciesRealized(t *testing.T) {
	counts := map[Class]int{}
	src := rng.New(99)
	const n = 3000
	for i := 0; i < n; i++ {
		m := Generate("x", src.Child(string(rune(i))), GenOptions{MeanMinutiae: 10})
		counts[m.Class]++
	}
	// Loops together ≈ 65%, whorls ≈ 28%, arches ≈ 7%.
	loops := float64(counts[LeftLoop]+counts[RightLoop]) / n
	whorls := float64(counts[Whorl]) / n
	arches := float64(counts[Arch]+counts[TentedArch]) / n
	if loops < 0.55 || loops > 0.75 {
		t.Fatalf("loop frequency %v", loops)
	}
	if whorls < 0.2 || whorls > 0.36 {
		t.Fatalf("whorl frequency %v", whorls)
	}
	if arches < 0.02 || arches > 0.13 {
		t.Fatalf("arch frequency %v", arches)
	}
}

func TestForceClass(t *testing.T) {
	for _, c := range []Class{Arch, TentedArch, LeftLoop, RightLoop, Whorl} {
		m := testMaster(t, 5, GenOptions{ForceClass: c, MeanMinutiae: 10})
		if m.Class != c {
			t.Fatalf("ForceClass %v ignored, got %v", c, m.Class)
		}
	}
}

func TestClassString(t *testing.T) {
	if Whorl.String() != "whorl" || Arch.String() != "arch" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should render")
	}
}

func TestSingularityCounts(t *testing.T) {
	cases := []struct {
		class         Class
		cores, deltas int
	}{
		{Arch, 0, 0},
		{TentedArch, 1, 1},
		{LeftLoop, 1, 1},
		{RightLoop, 1, 1},
		{Whorl, 2, 2},
	}
	for _, c := range cases {
		m := testMaster(t, 11, GenOptions{ForceClass: c.class, MeanMinutiae: 10})
		if len(m.Cores) != c.cores || len(m.Deltas) != c.deltas {
			t.Fatalf("%v: %d cores %d deltas", c.class, len(m.Cores), len(m.Deltas))
		}
	}
}

func TestOrientationRange(t *testing.T) {
	for _, class := range []Class{Arch, TentedArch, LeftLoop, RightLoop, Whorl} {
		m := testMaster(t, 13, GenOptions{ForceClass: class, MeanMinutiae: 10})
		for i := 0; i < 500; i++ {
			p := geom.Point{X: -10 + 20*float64(i%25)/24, Y: -12 + 24*float64(i/25)/19}
			th := m.OrientationAt(p)
			if th < 0 || th >= math.Pi {
				t.Fatalf("%v: orientation %v outside [0, π)", class, th)
			}
		}
	}
}

func TestOrientationFarFieldHorizontal(t *testing.T) {
	// Away from all singular points the flow should be near-horizontal
	// (loop: core and delta contributions cancel at long range).
	m := testMaster(t, 17, GenOptions{ForceClass: LeftLoop, MeanMinutiae: 10})
	p := geom.Point{X: 100, Y: 0}
	th := m.OrientationAt(p)
	d := math.Min(th, math.Pi-th)
	if d > 0.2 {
		t.Fatalf("far-field orientation %v not horizontal", th)
	}
}

func TestOrientationSmoothAwayFromSingularities(t *testing.T) {
	m := testMaster(t, 19, GenOptions{ForceClass: RightLoop, MeanMinutiae: 10})
	// Sample pairs of nearby points away from singular points and check
	// the orientation varies continuously.
	for i := 0; i < 200; i++ {
		p := geom.Point{X: -8 + float64(i%20), Y: -10 + float64(i/20)}
		tooClose := false
		for _, s := range append(append([]geom.Point{}, m.Cores...), m.Deltas...) {
			if p.Dist(s) < 2 {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		q := p.Add(geom.Point{X: 0.05, Y: 0.05})
		d := orientationDiff(m.OrientationAt(p), m.OrientationAt(q))
		if d > 0.3 {
			t.Fatalf("orientation jump %v at %v", d, p)
		}
	}
}

func TestInPadEllipse(t *testing.T) {
	m := testMaster(t, 29, GenOptions{MeanMinutiae: 10})
	if !m.InPad(geom.Point{}) {
		t.Fatal("centre not in pad")
	}
	if m.InPad(geom.Point{X: m.Pad.Width(), Y: 0}) {
		t.Fatal("far point in pad")
	}
	// Ellipse corner: (rx, ry)·(1/√2 + ε) should be outside.
	rx, ry := m.Pad.Width()/2, m.Pad.Height()/2
	if m.InPad(geom.Point{X: rx * 0.8, Y: ry * 0.8}) {
		t.Fatal("ellipse corner misclassified")
	}
}

func TestMinutiaeInsidePadWithSpacing(t *testing.T) {
	m := testMaster(t, 31, GenOptions{})
	if len(m.Minutiae) < 20 {
		t.Fatalf("only %d minutiae generated", len(m.Minutiae))
	}
	minDist := 1.6 * m.PeriodMM
	for i, a := range m.Minutiae {
		if !m.InPad(a.Pos) {
			t.Fatalf("minutia %d outside pad: %v", i, a.Pos)
		}
		if a.Angle < 0 || a.Angle >= 2*math.Pi {
			t.Fatalf("minutia %d angle %v out of range", i, a.Angle)
		}
		if a.Kind != minutiae.Ending && a.Kind != minutiae.Bifurcation {
			t.Fatalf("minutia %d bad kind", i)
		}
		if a.Prominence <= 0 || a.Prominence > 1 {
			t.Fatalf("minutia %d prominence %v", i, a.Prominence)
		}
		for j := i + 1; j < len(m.Minutiae); j++ {
			if a.Pos.Dist(m.Minutiae[j].Pos) < minDist-1e-9 {
				t.Fatalf("minutiae %d and %d too close", i, j)
			}
		}
	}
}

func TestMinutiaAnglesFollowOrientationField(t *testing.T) {
	m := testMaster(t, 37, GenOptions{})
	for i, gt := range m.Minutiae {
		want := m.OrientationAt(gt.Pos)
		d := orientationDiff(gt.Angle, want)
		if d > 1e-9 {
			t.Fatalf("minutia %d angle %v disagrees with field %v", i, gt.Angle, want)
		}
	}
}

func TestMeanMinutiaeOption(t *testing.T) {
	small := testMaster(t, 43, GenOptions{MeanMinutiae: 15})
	big := testMaster(t, 43, GenOptions{MeanMinutiae: 80})
	if len(small.Minutiae) >= len(big.Minutiae) {
		t.Fatalf("MeanMinutiae ignored: %d vs %d", len(small.Minutiae), len(big.Minutiae))
	}
}
