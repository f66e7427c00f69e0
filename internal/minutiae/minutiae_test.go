package minutiae

import (
	"math"
	"testing"

	"fpinterop/internal/rng"
)

func validTemplate() *Template {
	return &Template{
		Width: 400, Height: 375, DPI: 500,
		Minutiae: []Minutia{
			{X: 100, Y: 120, Angle: 1.2, Kind: Ending, Quality: 70},
			{X: 210, Y: 80, Angle: 4.5, Kind: Bifurcation, Quality: 55},
		},
	}
}

func TestTypeString(t *testing.T) {
	if Ending.String() != "ending" || Bifurcation.String() != "bifurcation" {
		t.Fatal("type names wrong")
	}
	if Type(9).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

func TestMinutiaDist(t *testing.T) {
	a := Minutia{X: 0, Y: 0}
	b := Minutia{X: 3, Y: 4}
	if a.Dist(b) != 5 {
		t.Fatal("Dist wrong")
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := validTemplate().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []func(*Template){
		func(tp *Template) { tp.Width = 0 },
		func(tp *Template) { tp.DPI = 0 },
		func(tp *Template) { tp.Minutiae[0].X = -1 },
		func(tp *Template) { tp.Minutiae[0].X = 400 },
		func(tp *Template) { tp.Minutiae[0].Angle = -0.1 },
		func(tp *Template) { tp.Minutiae[0].Angle = 2 * math.Pi },
		func(tp *Template) { tp.Minutiae[0].Kind = 0 },
	}
	for i, mutate := range cases {
		tp := validTemplate()
		mutate(tp)
		if err := tp.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tp := validTemplate()
	c := tp.Clone()
	c.Minutiae[0].X = 999
	if tp.Minutiae[0].X == 999 {
		t.Fatal("Clone shares minutiae storage")
	}
}

func TestCentroid(t *testing.T) {
	tp := validTemplate()
	x, y := tp.Centroid()
	if x != 155 || y != 100 {
		t.Fatalf("centroid = (%v, %v)", x, y)
	}
	empty := &Template{Width: 100, Height: 50, DPI: 500}
	x, y = empty.Centroid()
	if x != 50 || y != 25 {
		t.Fatalf("empty centroid = (%v, %v)", x, y)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestNormalizeAngleEqualsModForm holds NormalizeAngle to the form that
// always calls math.Mod, bit for bit: at the edges of the ranges where
// it skips the call, at the values Mod special-cases, and at seeded
// random angles around them.
func TestNormalizeAngleEqualsModForm(t *testing.T) {
	modForm := func(a float64) float64 {
		a = math.Mod(a, 2*math.Pi)
		if a < 0 {
			a += 2 * math.Pi
		}
		return a
	}
	twoPi := 2 * math.Pi
	ins := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		twoPi, -twoPi,
		math.Nextafter(twoPi, 0), math.Nextafter(twoPi, 10),
		math.Nextafter(-twoPi, 0), math.Nextafter(-twoPi, -10),
		3 * math.Pi, math.Nextafter(3*math.Pi, 0), -3 * math.Pi, math.Nextafter(-3*math.Pi, 0),
		2 * twoPi, math.Nextafter(2*twoPi, 0), math.Nextafter(2*twoPi, 100),
		math.Pi, -math.Pi, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	r := rng.New(1)
	for range 100000 {
		ins = append(ins, (r.Float64()-0.5)*16*math.Pi)
	}
	for _, in := range ins {
		got, want := NormalizeAngle(in), modForm(in)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("NormalizeAngle(%v [%#x]) = %v [%#x], Mod form %v [%#x]",
				in, math.Float64bits(in), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestCountIsLen(t *testing.T) {
	if validTemplate().Count() != 2 {
		t.Fatal("Count wrong")
	}
}
