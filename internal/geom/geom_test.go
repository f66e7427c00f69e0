package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func pointNear(a, b Point, tol float64) bool {
	return near(a.X, b.X, tol) && near(a.Y, b.Y, tol)
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Fatalf("Dot = %v", got)
	}
	if !near(Point{0, 0}.Dist(Point{3, 4}), 5, 1e-12) {
		t.Fatal("Dist wrong")
	}
}

func TestRotate(t *testing.T) {
	got := Point{1, 0}.Rotate(math.Pi / 2)
	if !pointNear(got, Point{0, 1}, 1e-12) {
		t.Fatalf("Rotate = %v", got)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !near(got, c.want, 1e-12) {
			t.Fatalf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleProperty(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) || math.Abs(theta) > 1e6 {
			return true
		}
		got := NormalizeAngle(theta)
		if got <= -math.Pi || got > math.Pi {
			return false
		}
		// Same point on the circle.
		return near(math.Sin(got), math.Sin(theta), 1e-6) && near(math.Cos(got), math.Cos(theta), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRigidApplyInvertRoundTrip(t *testing.T) {
	f := func(theta, tx, ty, px, py float64) bool {
		if bad(theta) || bad(tx) || bad(ty) || bad(px) || bad(py) {
			return true
		}
		r := Rigid{Theta: theta, T: Point{tx, ty}, S: 1}
		p := Point{px, py}
		back := r.Invert().Apply(r.Apply(p))
		return pointNear(back, p, 1e-6*(1+math.Hypot(p.X, p.Y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func bad(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e4
}

func TestRigidZeroScaleActsAsIdentityScale(t *testing.T) {
	r := Rigid{Theta: 0, T: Point{1, 1}} // S == 0 ⇒ treated as 1
	if got := r.Apply(Point{2, 3}); !pointNear(got, Point{3, 4}, 1e-12) {
		t.Fatalf("zero-scale Apply = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.Width() != 4 || r.Height() != 2 {
		t.Fatal("rect dims wrong")
	}
	if r.Center() != (Point{2, 1}) {
		t.Fatal("center wrong")
	}
	if !r.Contains(Point{4, 2}) || r.Contains(Point{4.01, 1}) {
		t.Fatal("contains wrong")
	}
}

func TestCenteredRect(t *testing.T) {
	r := CenteredRect(Point{1, 1}, 2, 4)
	if r != (Rect{0, -1, 2, 3}) {
		t.Fatalf("CenteredRect = %v", r)
	}
}

// bendingEnergy is wᵀKw summed over both coordinates: proportional to the
// spline's integral bending energy, zero for identity and affine warps.
func bendingEnergy(t *TPS) float64 {
	e := 0.0
	for i := range t.src {
		for j := range t.src {
			d := t.src[i].Sub(t.src[j])
			e += tpsKernel(d.Dot(d)) * (t.wx[i]*t.wx[j] + t.wy[i]*t.wy[j])
		}
	}
	return e
}

func TestTPSInterpolatesControlPoints(t *testing.T) {
	src := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	dst := []Point{{0.5, 0.2}, {10.1, -0.3}, {-0.2, 10.4}, {9.8, 9.9}, {5.5, 4.7}}
	tps, err := FitTPS(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got := tps.Apply(src[i]); !pointNear(got, dst[i], 1e-6) {
			t.Fatalf("control point %d: got %v, want %v", i, got, dst[i])
		}
	}
}

func TestTPSIdentityWarpIsIdentityEverywhere(t *testing.T) {
	src := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	tps, err := FitTPS(src, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{3, 7}, {5, 5}, {-2, 4}, {12, 12}} {
		if got := tps.Apply(p); !pointNear(got, p, 1e-6) {
			t.Fatalf("identity TPS moved %v to %v", p, got)
		}
	}
	if e := bendingEnergy(tps); math.Abs(e) > 1e-9 {
		t.Fatalf("identity warp has bending energy %v", e)
	}
}

func TestTPSAffineWarpHasZeroBendingEnergy(t *testing.T) {
	src := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {3, 4}}
	aff := func(p Point) Point { return Point{1.1*p.X + 0.1*p.Y + 2, -0.05*p.X + 0.95*p.Y - 1} }
	dst := make([]Point, len(src))
	for i, p := range src {
		dst[i] = aff(p)
	}
	tps, err := FitTPS(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := bendingEnergy(tps); math.Abs(e) > 1e-6 {
		t.Fatalf("affine warp bending energy = %v, want ~0", e)
	}
	// And it should reproduce the affine map away from control points.
	p := Point{7, 2}
	if got := tps.Apply(p); !pointNear(got, aff(p), 1e-6) {
		t.Fatalf("affine TPS extrapolation wrong: %v", got)
	}
}

func TestTPSNonAffineHasPositiveBendingEnergy(t *testing.T) {
	src := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	dst := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 8}} // bump the middle
	tps, err := FitTPS(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := bendingEnergy(tps); e <= 0 {
		t.Fatalf("non-affine warp bending energy = %v, want > 0", e)
	}
}

func TestTPSRegularizationSmooths(t *testing.T) {
	src := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	dst := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 9}}
	exact, err := FitTPS(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := FitTPS(src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bendingEnergy(smooth) >= bendingEnergy(exact) {
		t.Fatalf("regularized energy %v not below exact %v",
			bendingEnergy(smooth), bendingEnergy(exact))
	}
	// The regularized fit should NOT interpolate the bumped point exactly.
	if got := smooth.Apply(Point{5, 5}); near(got.Y, 9, 1e-6) {
		t.Fatal("regularized spline interpolated exactly; lambda had no effect")
	}
}

func TestTPSErrors(t *testing.T) {
	if _, err := FitTPS([]Point{{0, 0}}, []Point{{0, 0}, {1, 1}}, 0); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := FitTPS([]Point{{0, 0}, {1, 1}}, []Point{{0, 0}, {1, 1}}, 0); err == nil {
		t.Fatal("expected too-few-points error")
	}
	// Collinear control points make the system singular.
	col := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	if _, err := FitTPS(col, col, 0); err == nil {
		t.Fatal("expected singular error for collinear points")
	}
}

// rigidCases are fixed transforms covering each term of Rigid: rotation,
// translation, scale, and the zero scale that Apply treats as 1.
var rigidCases = []struct {
	name string
	r    Rigid
}{
	{"identity", Rigid{S: 1}},
	{"translation", Rigid{T: Point{3, -4}, S: 1}},
	{"quarter turn", Rigid{Theta: math.Pi / 2, S: 1}},
	{"half turn", Rigid{Theta: math.Pi, T: Point{1, 1}, S: 1}},
	{"rotation and translation", Rigid{Theta: -0.7, T: Point{-12.5, 8}, S: 1}},
	{"scaled", Rigid{Theta: 0.3, T: Point{2, -1}, S: 1.05}},
	{"unset scale", Rigid{Theta: 1.2, T: Point{5, 5}}},
}

// TestRigidInvert checks the inverse on fixed points in both composition
// orders, and that inverting twice gives back the original map. The
// property test above draws from the whole float64 range and so skips
// almost every draw; these cases always run.
func TestRigidInvert(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {0, 1}, {-7.5, 3.25}, {100, -40}}
	for _, c := range rigidCases {
		t.Run(c.name, func(t *testing.T) {
			inv := c.r.Invert()
			twice := inv.Invert()
			for _, p := range pts {
				tol := 1e-9 * (1 + math.Hypot(p.X, p.Y))
				if got := inv.Apply(c.r.Apply(p)); !pointNear(got, p, tol) {
					t.Fatalf("inv(r(%v)) = %v", p, got)
				}
				if got := c.r.Apply(inv.Apply(p)); !pointNear(got, p, tol) {
					t.Fatalf("r(inv(%v)) = %v", p, got)
				}
				if got, want := twice.Apply(p), c.r.Apply(p); !pointNear(got, want, tol) {
					t.Fatalf("inv(inv(r))(%v) = %v, want %v", p, got, want)
				}
			}
		})
	}
}

func TestRigidApplyKnownValues(t *testing.T) {
	cases := []struct {
		name string
		r    Rigid
		in   Point
		want Point
	}{
		{"identity", Rigid{S: 1}, Point{2, 3}, Point{2, 3}},
		{"translation", Rigid{T: Point{-1, 4}, S: 1}, Point{2, 3}, Point{1, 7}},
		{"quarter turn", Rigid{Theta: math.Pi / 2, S: 1}, Point{1, 0}, Point{0, 1}},
		{"half turn then shift", Rigid{Theta: math.Pi, T: Point{10, 0}, S: 1}, Point{1, 2}, Point{9, -2}},
		{"scale after rotation", Rigid{Theta: math.Pi / 2, T: Point{1, 1}, S: 2}, Point{1, 0}, Point{1, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.r.Apply(c.in); !pointNear(got, c.want, 1e-12) {
				t.Fatalf("Apply(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestRectContainsBorders(t *testing.T) {
	r := Rect{MinX: -1, MinY: 2, MaxX: 3, MaxY: 5}
	cases := []struct {
		name string
		p    Point
		want bool
	}{
		{"centre", r.Center(), true},
		{"min corner", Point{-1, 2}, true},
		{"max corner", Point{3, 5}, true},
		{"left of", Point{-1.001, 3}, false},
		{"right of", Point{3.001, 3}, false},
		{"below", Point{0, 1.999}, false},
		{"above", Point{0, 5.001}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := r.Contains(c.p); got != c.want {
				t.Fatalf("Contains(%v) = %v, want %v", c.p, got, c.want)
			}
		})
	}
}
