package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// FMRAt is the brute-force oracle for the impostor side: the fraction
// of impostor scores accepted (≥ t), counted by a linear scan.
func FMRAt(impostor []float64, t float64) float64 {
	if len(impostor) == 0 {
		return 0
	}
	n := 0
	for _, s := range impostor {
		if s >= t {
			n++
		}
	}
	return float64(n) / float64(len(impostor))
}

// dist sorts copies of two raw score slices into a ScoreDist.
func dist(genuine, impostor []float64) *ScoreDist {
	return ScoreDistFromSorted(SortedCopy(genuine), SortedCopy(impostor))
}

// bruteEER is the O((G+I)²) reference sweep the ScoreDist merge sweep
// replaced: every pooled score is a candidate threshold, and FMR/FNMR
// are recounted from scratch at each one.
func bruteEER(genuine, impostor []float64) (rate, threshold float64) {
	all := make([]float64, 0, len(genuine)+len(impostor))
	all = append(all, genuine...)
	all = append(all, impostor...)
	sort.Float64s(all)
	bestGap := 2.0
	for _, t := range all {
		fmr := FMRAt(impostor, t)
		fnmr := FNMRAt(genuine, t)
		gap := math.Abs(fmr - fnmr)
		if gap < bestGap {
			bestGap = gap
			rate = (fmr + fnmr) / 2
			threshold = t
		}
	}
	return rate, threshold
}

// bruteFNMRAtFMR is the linear-scan reference for the Tables 5/6
// operating point.
func bruteFNMRAtFMR(genuine, impostor []float64, target float64) (fnmr, threshold float64) {
	s := SortedCopy(impostor)
	n := len(s)
	allowed := int(target * float64(n))
	if allowed >= n {
		threshold = s[0]
	} else {
		threshold = math.Nextafter(s[n-allowed-1], math.Inf(1))
	}
	return FNMRAt(genuine, threshold), threshold
}

// randScores produces deterministic pseudo-random score sets. Half the
// draws are quantized onto a coarse grid so ties and duplicate
// thresholds (within and across the two populations) are common, and
// the whole scale is shifted to cross zero.
func randScores(seed uint64, nGen, nImp int) (genuine, impostor []float64) {
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>33) / float64(1<<31)
	}
	draw := func(shift float64) float64 {
		v := next()*20 - shift
		if next() < 0.5 {
			v = math.Floor(v*2) / 2 // quantize → ties
		}
		return v
	}
	for i := 0; i < nGen; i++ {
		genuine = append(genuine, draw(5))
	}
	for i := 0; i < nImp; i++ {
		impostor = append(impostor, draw(12))
	}
	return genuine, impostor
}

func TestEERSweepMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		nGen := 2 + int(seed%97)
		nImp := 2 + int((seed/97)%113)
		genuine, impostor := randScores(seed, nGen, nImp)
		wantRate, wantThr := bruteEER(genuine, impostor)
		gotRate, gotThr, err := dist(genuine, impostor).EER()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if gotRate != wantRate || gotThr != wantThr {
			t.Logf("seed %d: sweep (%v, %v) vs brute (%v, %v)",
				seed, gotRate, gotThr, wantRate, wantThr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFNMRAtFMRSweepMatchesBruteForce(t *testing.T) {
	targets := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 1}
	f := func(seed uint64) bool {
		genuine, impostor := randScores(seed, 3+int(seed%50), 3+int((seed/7)%200))
		for _, target := range targets {
			wantFNMR, wantThr := bruteFNMRAtFMR(genuine, impostor, target)
			gotFNMR, gotThr, err := dist(genuine, impostor).FNMRAtFMR(target)
			if err != nil {
				t.Logf("seed %d target %v: %v", seed, target, err)
				return false
			}
			if gotFNMR != wantFNMR || gotThr != wantThr {
				t.Logf("seed %d target %v: sweep (%v, %v) vs brute (%v, %v)",
					seed, target, gotFNMR, gotThr, wantFNMR, wantThr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreDistPointQueriesMatchLinearScans(t *testing.T) {
	genuine, impostor := randScores(99, 200, 300)
	d := dist(genuine, impostor)
	for t0 := -15.0; t0 <= 16; t0 += 0.25 {
		if got, want := d.FNMRAt(t0), FNMRAt(genuine, t0); got != want {
			t.Fatalf("FNMRAt(%v) = %v, want %v", t0, got, want)
		}
	}
}

// TestThresholdForFMRNegativeScores is the regression test for the old
// nextAfter: at x = -1 the perturbation x + x*1e-12 + 1e-12 cancels to
// exactly x, so the returned "threshold just above the largest rejected
// score" still accepted that score and the realized FMR overshot the
// target on score scales that go negative.
func TestThresholdForFMRNegativeScores(t *testing.T) {
	impostor := []float64{-9, -7, -5, -3, -1}
	// Target 0: every impostor, including the largest score -1, must be
	// rejected — exactly the value where the old perturbation cancelled.
	thr, err := ThresholdForFMR(impostor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= -1 {
		t.Fatalf("threshold %v does not exceed the boundary score -1", thr)
	}
	if got := FMRAt(impostor, thr); got != 0 {
		t.Fatalf("FMR at threshold = %v, want 0", got)
	}
	// Sweep a range of negative-heavy scales and targets: realized FMR
	// must never exceed the target.
	for seed := uint64(1); seed < 30; seed++ {
		_, imp := randScores(seed, 5, 50)
		for _, target := range []float64{0, 0.05, 0.3, 0.9} {
			thr, err := ThresholdForFMR(imp, target)
			if err != nil {
				t.Fatal(err)
			}
			if got := FMRAt(imp, thr); got > target {
				t.Fatalf("seed %d target %v: realized FMR %v", seed, target, got)
			}
		}
	}
}

func TestScoreDistErrors(t *testing.T) {
	d := dist(nil, nil)
	if _, err := d.ThresholdForFMR(0.1); err == nil {
		t.Fatal("expected empty-impostor error")
	}
	if _, _, err := d.EER(); err == nil {
		t.Fatal("expected empty EER error")
	}
	d = dist([]float64{1, 2}, []float64{0, 1})
	if _, err := d.ThresholdForFMR(1.5); err == nil {
		t.Fatal("expected range error")
	}
}

// TestEERHandComputed pins EER on distributions small enough to sweep by
// hand. Each threshold t accepts scores ≥ t; the sweep keeps the lowest
// pooled score where |FMR − FNMR| is smallest.
func TestEERHandComputed(t *testing.T) {
	cases := []struct {
		name              string
		genuine, impostor []float64
		wantRate, wantThr float64
	}{
		// t=3: no impostor accepted, no genuine rejected.
		{"separated", []float64{5, 3, 4}, []float64{2, 0, 1}, 0, 3},
		// t=2: FMR = FNMR = 1/2.
		{"identical", []float64{1, 2}, []float64{2, 1}, 0.5, 2},
		// t=2: every impostor accepted, every genuine rejected.
		{"reversed", []float64{0, 1}, []float64{3, 2}, 1, 2},
		// t=5: FMR = FNMR = 2/4.
		{"interleaved", []float64{2, 4, 6, 8}, []float64{1, 3, 5, 7}, 0.5, 5},
		// t=1 (FMR 2/3, FNMR 0) and t=2 (FMR 0, FNMR 2/3) tie on the
		// gap; the lower threshold wins.
		{"tied across classes", []float64{1, 1, 2}, []float64{1, 0, 1}, 1.0 / 3, 1},
		{"negative scores", []float64{-1, -2}, []float64{-5, -4, -3}, 0, -2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rate, thr, err := dist(c.genuine, c.impostor).EER()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rate-c.wantRate) > 1e-12 || thr != c.wantThr {
				t.Fatalf("EER = %v at %v, want %v at %v", rate, thr, c.wantRate, c.wantThr)
			}
		})
	}
}
