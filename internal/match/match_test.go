package match

import (
	"math"
	"sync"
	"testing"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// syntheticTemplate builds a template with n pseudo-random minutiae.
func syntheticTemplate(seed uint64, n int) *minutiae.Template {
	src := rng.New(seed)
	tpl := &minutiae.Template{Width: 330, Height: 400, DPI: 500}
	for i := 0; i < n; i++ {
		kind := minutiae.Ending
		if src.Bool(0.45) {
			kind = minutiae.Bifurcation
		}
		tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
			X:       20 + src.Float64()*290,
			Y:       20 + src.Float64()*360,
			Angle:   src.Float64() * 2 * math.Pi,
			Kind:    kind,
			Quality: 60,
		})
	}
	return tpl
}

// transformTemplate applies a rigid transform to every minutia, dropping
// those that leave the window.
func transformTemplate(t *minutiae.Template, tr geom.Rigid) *minutiae.Template {
	out := &minutiae.Template{Width: t.Width, Height: t.Height, DPI: t.DPI}
	for _, m := range t.Minutiae {
		p := tr.Apply(geom.Point{X: m.X, Y: m.Y})
		if p.X < 0 || p.X >= float64(t.Width) || p.Y < 0 || p.Y >= float64(t.Height) {
			continue
		}
		out.Minutiae = append(out.Minutiae, minutiae.Minutia{
			X: p.X, Y: p.Y,
			Angle:   minutiae.NormalizeAngle(m.Angle + tr.Theta),
			Kind:    m.Kind,
			Quality: m.Quality,
		})
	}
	return out
}

func TestHoughNilAndEmpty(t *testing.T) {
	var m HoughMatcher
	if _, err := m.Match(nil, syntheticTemplate(1, 10)); err == nil {
		t.Fatal("expected error for nil gallery")
	}
	empty := &minutiae.Template{Width: 100, Height: 100, DPI: 500}
	res, err := m.Match(empty, syntheticTemplate(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 {
		t.Fatalf("empty template scored %v", res.Score)
	}
}

func TestHoughSelfMatchScoresHigh(t *testing.T) {
	var m HoughMatcher
	tpl := syntheticTemplate(7, 35)
	res, err := m.Match(tpl, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 15 {
		t.Fatalf("self-match score %v too low", res.Score)
	}
	if res.Matched < 30 {
		t.Fatalf("self-match paired only %d of 35", res.Matched)
	}
}

func TestHoughInvariantToRigidMotion(t *testing.T) {
	var m HoughMatcher
	tpl := syntheticTemplate(11, 35)
	for _, tr := range []geom.Rigid{
		{Theta: 0, T: geom.Point{X: 18, Y: -12}, S: 1},
		{Theta: 0.3, T: geom.Point{X: -10, Y: 15}, S: 1},
		{Theta: -0.5, T: geom.Point{X: 25, Y: 25}, S: 1},
	} {
		moved := transformTemplate(tpl, tr)
		res, err := m.Match(tpl, moved)
		if err != nil {
			t.Fatal(err)
		}
		// Most surviving minutiae should re-pair.
		if res.Matched < int(0.7*float64(moved.Count())) {
			t.Fatalf("transform %+v: matched %d of %d", tr, res.Matched, moved.Count())
		}
		if res.Score < 10 {
			t.Fatalf("transform %+v: score %v", tr, res.Score)
		}
	}
}

func TestHoughRecoveredTransform(t *testing.T) {
	var m HoughMatcher
	tpl := syntheticTemplate(13, 30)
	want := geom.Rigid{Theta: 0.25, T: geom.Point{X: 12, Y: -8}, S: 1}
	moved := transformTemplate(tpl, want)
	// Probe = moved; transform maps probe → gallery, i.e. the inverse.
	res, err := m.Match(tpl, moved)
	if err != nil {
		t.Fatal(err)
	}
	inv := want.Invert()
	if math.Abs(geom.NormalizeAngle(res.Transform.Theta-inv.Theta)) > 0.1 {
		t.Fatalf("recovered rotation %v, want %v", res.Transform.Theta, inv.Theta)
	}
}

func TestImpostorScoresStayLow(t *testing.T) {
	var m HoughMatcher
	maxScore := 0.0
	for i := 0; i < 150; i++ {
		a := syntheticTemplate(uint64(1000+i), 35)
		b := syntheticTemplate(uint64(5000+i), 35)
		res, err := m.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score > maxScore {
			maxScore = res.Score
		}
	}
	// The paper's empirical bound: impostor scores never exceeded 7.
	if maxScore >= 7 {
		t.Fatalf("impostor score %v reached the genuine region", maxScore)
	}
}

func TestGenuineBeatsImpostorWithRealSensors(t *testing.T) {
	cohort := population.NewCohort(rng.New(77), population.CohortOptions{Size: 30})
	d0, _ := sensor.ProfileByID("D0")
	var m HoughMatcher
	var genuine, impostor []float64
	for i, s := range cohort.Subjects {
		a, err := d0.CaptureSubject(s, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := d0.CaptureSubject(s, 1, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Match(a.Template, b.Template)
		if err != nil {
			t.Fatal(err)
		}
		genuine = append(genuine, res.Score)
		// Impostor: next subject's capture.
		o := cohort.Subjects[(i+1)%len(cohort.Subjects)]
		c, err := d0.CaptureSubject(o, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := m.Match(a.Template, c.Template)
		if err != nil {
			t.Fatal(err)
		}
		impostor = append(impostor, res2.Score)
	}
	gm := mean(genuine)
	im := mean(impostor)
	if gm < im+5 {
		t.Fatalf("genuine mean %v not well above impostor mean %v", gm, im)
	}
	// Majority of genuine scores above the paper's implicit threshold 7.
	above := 0
	for _, g := range genuine {
		if g > 7 {
			above++
		}
	}
	if above < len(genuine)*6/10 {
		t.Fatalf("only %d/%d same-device genuine scores above 7", above, len(genuine))
	}
}

func TestSameDeviceBeatsCrossDevice(t *testing.T) {
	// The central interoperability phenomenon: DMG stochastically
	// dominates DDMG.
	cohort := population.NewCohort(rng.New(99), population.CohortOptions{Size: 40})
	d0, _ := sensor.ProfileByID("D0")
	d1, _ := sensor.ProfileByID("D1")
	var m HoughMatcher
	var same, cross []float64
	for _, s := range cohort.Subjects {
		g, _ := d0.CaptureSubject(s, 0, sensor.CaptureOptions{})
		p0, _ := d0.CaptureSubject(s, 1, sensor.CaptureOptions{})
		p1, _ := d1.CaptureSubject(s, 1, sensor.CaptureOptions{})
		r0, err := m.Match(g.Template, p0.Template)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := m.Match(g.Template, p1.Template)
		if err != nil {
			t.Fatal(err)
		}
		same = append(same, r0.Score)
		cross = append(cross, r1.Score)
	}
	if mean(same) <= mean(cross) {
		t.Fatalf("same-device mean %v not above cross-device %v", mean(same), mean(cross))
	}
}

func TestHoughDeterministic(t *testing.T) {
	var m HoughMatcher
	a := syntheticTemplate(21, 35)
	b := syntheticTemplate(22, 35)
	r1, _ := m.Match(a, b)
	r2, _ := m.Match(a, b)
	if r1.Score != r2.Score || r1.Matched != r2.Matched {
		t.Fatal("matcher not deterministic")
	}
}

func TestHoughConcurrentUse(t *testing.T) {
	var m HoughMatcher
	a := syntheticTemplate(31, 30)
	b := transformTemplate(a, geom.Rigid{Theta: 0.1, T: geom.Point{X: 5, Y: 5}, S: 1})
	want, _ := m.Match(a, b)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, err := m.Match(a, b)
				if err != nil || got.Score != want.Score {
					panic("concurrent match diverged")
				}
			}
		}()
	}
	wg.Wait()
}

func TestGreedyMatcherBasics(t *testing.T) {
	var m GreedyMatcher
	if _, err := m.Match(nil, nil); err == nil {
		t.Fatal("expected nil error")
	}
	tpl := syntheticTemplate(41, 30)
	res, err := m.Match(tpl, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 12 {
		t.Fatalf("greedy self-match %v too low", res.Score)
	}
	empty := &minutiae.Template{Width: 10, Height: 10, DPI: 500}
	if res, _ := m.Match(tpl, empty); res.Score != 0 {
		t.Fatal("empty probe should score 0")
	}
}

func TestGreedyWeakerThanHoughUnderRotation(t *testing.T) {
	hough := &HoughMatcher{}
	greedy := &GreedyMatcher{}
	tpl := syntheticTemplate(51, 35)
	// Rotation plus translation defeats centroid alignment but not Hough.
	tr := geom.Rigid{Theta: 0.35, T: geom.Point{X: 20, Y: -15}, S: 1}
	moved := transformTemplate(tpl, tr)
	hr, err := hough.Match(tpl, moved)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := greedy.Match(tpl, moved)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Score <= gr.Score {
		t.Fatalf("hough %v should beat greedy %v on transformed input", hr.Score, gr.Score)
	}
}

func TestEstimateRigidRecoversKnownTransform(t *testing.T) {
	src := rng.New(61)
	var ga, pr []point
	want := geom.Rigid{Theta: 0.4, T: geom.Point{X: 30, Y: -12}, S: 1}
	var pairs [][2]int
	for i := 0; i < 10; i++ {
		p := geom.Point{X: src.Float64() * 200, Y: src.Float64() * 200}
		q := want.Apply(p)
		pr = append(pr, point{x: p.X, y: p.Y})
		ga = append(ga, point{x: q.X, y: q.Y})
		pairs = append(pairs, [2]int{i, i})
	}
	got, ok := estimateRigid(ga, pr, pairs)
	if !ok {
		t.Fatal("estimateRigid failed")
	}
	if math.Abs(geom.NormalizeAngle(got.Theta-want.Theta)) > 1e-6 {
		t.Fatalf("theta %v, want %v", got.Theta, want.Theta)
	}
	if got.T.Dist(want.T) > 1e-6 {
		t.Fatalf("T %v, want %v", got.T, want.T)
	}
}

func TestEstimateRigidTooFewPairs(t *testing.T) {
	if _, ok := estimateRigid(nil, nil, [][2]int{{0, 0}}); ok {
		t.Fatal("expected failure with one pair")
	}
}

func TestScoreFromPairingShape(t *testing.T) {
	// More matches, tighter residuals → higher scores; bounded by 30.
	low := scoreFromPairing(4, 10, 14, 35)
	high := scoreFromPairing(28, 3, 14, 35)
	if low >= high {
		t.Fatalf("score not increasing: %v vs %v", low, high)
	}
	if high > 30 {
		t.Fatalf("score %v exceeds scale", high)
	}
	if scoreFromPairing(1, 0, 14, 35) != 0 {
		t.Fatal("single pair must score 0")
	}
	perfect := scoreFromPairing(35, 0, 14, 35)
	if perfect < 25 || perfect > 30 {
		t.Fatalf("perfect score %v outside expected band", perfect)
	}
}

func TestOverlapDenom(t *testing.T) {
	// Two equal templates under identity: denom is the full count.
	a := syntheticTemplate(91, 30)
	id := geom.Rigid{S: 1}
	if d := overlapDenom(a, a, id); d != 30 {
		t.Fatalf("identity overlap denom = %d, want 30", d)
	}
	// Shift half the window away: denom shrinks but respects the floor of
	// half the smaller template.
	shifted := geom.Rigid{T: geom.Point{X: float64(a.Width)}, S: 1}
	d := overlapDenom(a, a, shifted)
	if d < 15 {
		t.Fatalf("denominator floor violated: %d", d)
	}
	if d >= 30 {
		t.Fatalf("disjoint overlap denom = %d, want below full count", d)
	}
}

func TestAngleDiffHelper(t *testing.T) {
	if d := angleDiff(0.1, 2*math.Pi-0.1); math.Abs(d-0.2) > 1e-9 {
		t.Fatalf("wraparound diff %v", d)
	}
	if d := angleDiff(1, 1); d != 0 {
		t.Fatalf("zero diff %v", d)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
