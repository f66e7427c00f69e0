package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormTailKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.96, 0.025},
		{-1.96, 0.975},
		{3, 0.00135},
	}
	for _, c := range cases {
		if got := NormTail(c.z); math.Abs(got-c.want) > 0.0005 {
			t.Fatalf("NormTail(%v) = %v, want ≈ %v", c.z, got, c.want)
		}
	}
}

func TestLogNormTailMatchesDirectInOverlap(t *testing.T) {
	for z := 0.5; z < 8; z += 0.5 {
		direct := math.Log(NormTail(z))
		got := LogNormTail(z)
		if math.Abs(got-direct) > 1e-6 {
			t.Fatalf("z=%v: LogNormTail %v vs direct %v", z, got, direct)
		}
	}
}

func TestLogNormTailExtreme(t *testing.T) {
	// z=33.2 should give p ≈ 1e-242 — the magnitude of the paper's
	// Table 4 diagonal.
	logP := LogNormTail(33.2)
	log10P := logP / math.Ln10
	if log10P > -240 || log10P < -245 {
		t.Fatalf("log10 P(Z>33.2) = %v, want ≈ -242", log10P)
	}
	// Monotone decreasing.
	if LogNormTail(50) >= LogNormTail(40) {
		t.Fatal("tail not decreasing")
	}
}

func TestPValueString(t *testing.T) {
	cases := []struct {
		p    PValue
		want string
	}{
		{PValue{Log10: math.Log10(0.05)}, "5.00e-02"},
		{PValue{Log10: 0}, "1"},
		{PValue{Log10: math.Inf(-1)}, "0"},
		{PValue{Log10: -241.266}, "5.42e-242"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Fatalf("PValue(%v).String() = %q, want %q", c.p.Log10, got, c.want)
		}
	}
}

func TestTwoSidedNormalP(t *testing.T) {
	p := math.Pow(10, TwoSidedNormalP(1.96).Log10)
	if math.Abs(p-0.05) > 0.001 {
		t.Fatalf("two-sided p(1.96) = %v, want ≈ 0.05", p)
	}
	if math.Pow(10, TwoSidedNormalP(0).Log10) < 0.99 {
		t.Fatal("p(0) should be ~1")
	}
	// Symmetric in sign.
	if TwoSidedNormalP(2.5) != TwoSidedNormalP(-2.5) {
		t.Fatal("not symmetric")
	}
}

func TestKendallPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := Kendall(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != 1 {
		t.Fatalf("tau = %v, want 1", res.Tau)
	}
	if res.P.Log10 > -2 {
		t.Fatalf("perfect correlation p = %v not significant", res.P)
	}
}

func TestKendallPerfectAnticorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	res, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != -1 {
		t.Fatalf("tau = %v, want -1", res.Tau)
	}
}

func TestKendallIndependent(t *testing.T) {
	// Deterministic pseudo-random independent sequences.
	var x, y []float64
	s := uint64(12345)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>33) / float64(1<<31)
	}
	for i := 0; i < 400; i++ {
		x = append(x, next())
		y = append(y, next())
	}
	res, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Tau) > 0.1 {
		t.Fatalf("independent tau = %v", res.Tau)
	}
	if res.P.Log10 < -3 {
		t.Fatalf("independent data spuriously significant: %v", res.P)
	}
}

func TestKendallDiagonalMagnitudeMatchesPaper(t *testing.T) {
	// 494 subjects, identical lists → tau = 1 and p ≈ e-242, the paper's
	// Table 4 diagonal magnitude.
	x := make([]float64, 494)
	for i := range x {
		x[i] = float64(i%100) + float64(i)*0.001
	}
	res, err := Kendall(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != 1 {
		t.Fatalf("tau = %v", res.Tau)
	}
	if res.P.Log10 > -230 || res.P.Log10 < -255 {
		t.Fatalf("diagonal p = %v (log10 %v), want ≈ e-242", res.P, res.P.Log10)
	}
}

func TestKendallTies(t *testing.T) {
	x := []float64{1, 1, 2, 2, 3, 3}
	y := []float64{1, 2, 2, 3, 3, 4}
	res, err := Kendall(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau <= 0 || res.Tau > 1 {
		t.Fatalf("tied tau = %v", res.Tau)
	}
	// All-tied x carries no information.
	flat := []float64{5, 5, 5, 5, 5, 5}
	res, err = Kendall(flat, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != 0 || res.P.Log10 != 0 {
		t.Fatalf("degenerate Kendall = %+v", res)
	}
}

func TestKendallErrors(t *testing.T) {
	if _, err := Kendall([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := Kendall([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected too-few error")
	}
}

func TestKendallPropertySymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>33) / float64(1<<31)
		}
		var x, y []float64
		for i := 0; i < 30; i++ {
			x = append(x, next())
			y = append(y, next())
		}
		a, err1 := Kendall(x, y)
		b, err2 := Kendall(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Tau-b.Tau) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdForFMR(t *testing.T) {
	impostor := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// Target 20%: allow 2 of 10 impostors through → threshold just above 7.
	thr, err := ThresholdForFMR(impostor, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := FMRAt(impostor, thr); got > 0.2 {
		t.Fatalf("FMR at threshold = %v > target", got)
	}
	if got := FMRAt(impostor, thr); got < 0.15 {
		t.Fatalf("threshold too conservative: FMR %v", got)
	}
}

func TestThresholdForFMRZeroTarget(t *testing.T) {
	impostor := []float64{1, 5, 3}
	thr, err := ThresholdForFMR(impostor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if FMRAt(impostor, thr) != 0 {
		t.Fatal("zero-target threshold admits impostors")
	}
}

func TestThresholdForFMRErrors(t *testing.T) {
	if _, err := ThresholdForFMR(nil, 0.1); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := ThresholdForFMR([]float64{1}, 1.5); err == nil {
		t.Fatal("expected range error")
	}
}

func TestFNMRAt(t *testing.T) {
	genuine := []float64{2, 8, 9, 10}
	if got := FNMRAt(genuine, 7); got != 0.25 {
		t.Fatalf("FNMR = %v, want 0.25", got)
	}
	if FNMRAt(nil, 7) != 0 {
		t.Fatal("empty FNMR should be 0")
	}
}

func TestFNMRAtFMREndToEnd(t *testing.T) {
	// Well-separated distributions: genuine ~ 10-20, impostor ~ 0-5.
	var genuine, impostor []float64
	for i := 0; i < 1000; i++ {
		genuine = append(genuine, 10+float64(i%100)/10)
		impostor = append(impostor, float64(i%50)/10)
	}
	genuine[0] = 1 // one failure
	fnmr, thr, err := dist(genuine, impostor).FNMRAtFMR(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if thr < 4.9 || thr > 10 {
		t.Fatalf("threshold %v outside separation gap", thr)
	}
	if math.Abs(fnmr-0.001) > 1e-9 {
		t.Fatalf("FNMR = %v, want 0.001 (the planted failure)", fnmr)
	}
}

func TestEER(t *testing.T) {
	genuine := []float64{5, 6, 7, 8, 9, 10}
	impostor := []float64{1, 2, 3, 4, 5, 6}
	rate, thr, err := dist(genuine, impostor).EER()
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0 || rate > 0.5 {
		t.Fatalf("EER = %v implausible", rate)
	}
	if thr < 4 || thr > 8 {
		t.Fatalf("EER threshold %v outside overlap", thr)
	}
	if _, _, err := dist(nil, impostor).EER(); err == nil {
		t.Fatal("expected error")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0, 1.9
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Counts[3] != 0 {
		t.Fatalf("counts = %v", h.Counts)
	}
	lo, hi := h.BinRange(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("bin range = [%v, %v)", lo, hi)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("expected bins error")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("expected range error")
	}
}

func TestMeanStdQuantile(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatal("mean wrong")
	}
	if math.Abs(StdDev(xs)-2) > 1e-9 {
		t.Fatalf("std = %v", StdDev(xs))
	}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 4 && q != 5 {
		t.Fatalf("median = %v", q)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Quantile(xs, 2); err == nil {
		t.Fatal("expected range error")
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty stats should be 0")
	}
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := SortedCopy(xs)
	if xs[0] != 3 {
		t.Fatal("input mutated")
	}
	if s[0] != 1 || s[2] != 3 {
		t.Fatal("not sorted")
	}
}

func TestPValueStringRendering(t *testing.T) {
	// Exponents should render with sign and at least two digits.
	p := PValue{Log10: -6.5}
	if !strings.Contains(p.String(), "e-") {
		t.Fatalf("rendering %q missing exponent", p.String())
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q, want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.9, 4}, // index ⌊0.9·4⌋ = 3
		{1, 5},
	}
	for _, c := range cases {
		t.Run(fmt.Sprint("q=", c.q), func(t *testing.T) {
			got, err := Quantile(xs, c.q)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
			}
			if xs[0] != 5 || xs[4] != 3 {
				t.Fatalf("Quantile sorted its input: %v", xs)
			}
		})
	}
	for _, c := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"empty", nil, 0.5},
		{"negative q", xs, -0.1},
		{"q above one", xs, 1.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Quantile(c.xs, c.q); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}
