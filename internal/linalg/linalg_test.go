package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveRhsMismatch(t *testing.T) {
	a := identity(3)
	if _, err := Solve(a, []float64{1}); err == nil {
		t.Fatal("expected error for wrong rhs length")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 5, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := fromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 || a.At(1, 0) != 1 || b[0] != 1 {
		t.Fatal("Solve mutated its inputs")
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	// Property: for random well-conditioned A and x, Solve(A, A·x) ≈ x.
	f := func(seed int64) bool {
		n := 5
		a := identity(n)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>33%2000)-1000) / 500.0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)+next()/4)
			}
			a.Set(i, i, a.At(i, i)+3) // diagonal dominance keeps it well-conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = next()
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += a.At(i, j) * x[j]
			}
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := identity(2)
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSolveSystems(t *testing.T) {
	cases := []struct {
		name string
		a    [][]float64
		b    []float64
		want []float64 // nil: ErrSingular expected
	}{
		{"1x1", [][]float64{{4}}, []float64{2}, []float64{0.5}},
		{"diagonal", [][]float64{{2, 0, 0}, {0, -4, 0}, {0, 0, 0.5}}, []float64{2, 8, 3}, []float64{1, -2, 6}},
		{"lower triangular", [][]float64{{1, 0, 0}, {2, 1, 0}, {3, 2, 1}}, []float64{1, 4, 10}, []float64{1, 2, 3}},
		{"cyclic permutation", [][]float64{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}}, []float64{7, 8, 9}, []float64{8, 9, 7}},
		// Without the row swap the 1e-20 pivot would wipe out the
		// second equation in floating point.
		{"tiny pivot", [][]float64{{1e-20, 1}, {1, 1}}, []float64{1, 2}, []float64{1, 1}},
		{"zero matrix", [][]float64{{0, 0}, {0, 0}}, []float64{1, 1}, nil},
		{"zero column", [][]float64{{1, 0, 2}, {3, 0, 4}, {5, 0, 6}}, []float64{1, 2, 3}, nil},
		{"dependent rows", [][]float64{{1, 2, 3}, {2, 4, 6.5}, {3, 6, 9.5}}, []float64{1, 2, 3}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x, err := Solve(fromRows(c.a), c.b)
			if c.want == nil {
				if !errors.Is(err, ErrSingular) {
					t.Fatalf("want ErrSingular, got x=%v err=%v", x, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.want {
				if !almostEq(x[i], c.want[i], 1e-12) {
					t.Fatalf("x = %v, want %v", x, c.want)
				}
			}
		})
	}
}
