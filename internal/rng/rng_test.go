package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/100 times", same)
	}
}

func TestChildIndependentOfParentConsumption(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	p2.Uint64() // consuming from the parent must not change children
	c1 := p1.Child("subject/1")
	c2 := p2.Child("subject/1")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("child stream depends on parent consumption")
		}
	}
}

func TestChildPathsDistinct(t *testing.T) {
	p := New(7)
	a := p.Child("a")
	b := p.Child("b")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("distinct paths produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn bucket %d badly skewed: %d", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestTruncNormRespectsBounds(t *testing.T) {
	s := New(17)
	for i := 0; i < 5000; i++ {
		x := s.TruncNorm(0, 10, -1, 1)
		if x < -1 || x > 1 {
			t.Fatalf("TruncNorm escaped bounds: %v", x)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 45} {
		s := New(uint64(mean * 100))
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) sample mean %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	if got := New(1).Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := New(1).Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	s := New(23)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := s.Beta(2, 5)
		if x < 0 || x > 1 {
			t.Fatalf("Beta out of [0,1]: %v", x)
		}
		sum += x
	}
	mean := sum / n
	want := 2.0 / 7.0
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("Beta(2,5) mean %v, want ≈ %v", mean, want)
	}
}

func TestGammaMean(t *testing.T) {
	s := New(29)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Gamma(3.5)
	}
	mean := sum / n
	if math.Abs(mean-3.5) > 0.1 {
		t.Fatalf("Gamma(3.5) mean %v", mean)
	}
}

func TestGammaSmallShape(t *testing.T) {
	s := New(31)
	for i := 0; i < 1000; i++ {
		if x := s.Gamma(0.3); x < 0 {
			t.Fatalf("Gamma(0.3) negative: %v", x)
		}
	}
	if x := s.Gamma(0); x != 0 {
		t.Fatalf("Gamma(0) = %v, want 0", x)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: sum %d != %d", got, sum)
	}
}

func TestPickWeighted(t *testing.T) {
	s := New(43)
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[s.Pick([]float64{1, 2, 6})]++
	}
	// Expected proportions 1/9, 2/9, 6/9.
	if c := float64(counts[2]) / n; math.Abs(c-6.0/9.0) > 0.01 {
		t.Fatalf("Pick heavy bucket proportion %v", c)
	}
	if c := float64(counts[0]) / n; math.Abs(c-1.0/9.0) > 0.01 {
		t.Fatalf("Pick light bucket proportion %v", c)
	}
}

func TestPickDegenerate(t *testing.T) {
	s := New(47)
	if got := s.Pick([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("Pick zero weights = %d, want 0", got)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(53)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", p)
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify against the 128-bit product computed via math/bits-free
		// split multiplication identity on 32-bit halves.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		t0 := a0 * b0
		t1 := a1*b0 + t0>>32
		t2 := t1&0xffffffff + a0*b1
		wantHi := a1*b1 + t1>>32 + t2>>32
		wantLo := a * b
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Norm()
	}
}

// TestIntnRanges covers bounds whose rejection threshold is zero (powers
// of two), tiny, and large enough that Lemire's rejection loop runs on
// about one draw in eight (n = 3·2⁶¹ rejects when lo < 2⁶¹). Each bound
// is split into four equal-width buckets that must fill evenly.
func TestIntnRanges(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1 << 20, 1000003, 3 << 61} {
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			s := New(uint64(n))
			const draws = 40000
			var buckets [4]int
			for i := 0; i < draws; i++ {
				v := s.Intn(n)
				if v < 0 || v >= n {
					t.Fatalf("Intn(%d) = %d", n, v)
				}
				buckets[int(float64(v)/float64(n)*4)]++
			}
			if n < 4 {
				return // fewer values than buckets
			}
			for i, c := range buckets {
				if c < draws/4-600 || c > draws/4+600 {
					t.Fatalf("bucket %d holds %d of %d draws", i, c, draws)
				}
			}
		})
	}
}

// TestShuffleUniformOverPermutations draws many shuffles of three items:
// each of the 3! orders must come up about equally often.
func TestShuffleUniformOverPermutations(t *testing.T) {
	s := New(59)
	counts := map[[3]int]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		xs := [3]int{0, 1, 2}
		s.Shuffle(3, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		counts[xs]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct orders, want 6: %v", len(counts), counts)
	}
	for perm, c := range counts {
		if c < n/6-500 || c > n/6+500 {
			t.Fatalf("order %v drawn %d times of %d", perm, c, n)
		}
	}
}
