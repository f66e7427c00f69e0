package minutiae

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	tp := validTemplate()
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	// AppendMarshal writes the same bytes after whatever dst holds.
	prefix := []byte("prefix")
	if got, err := AppendMarshal(prefix, tp); err != nil || string(got) != string(prefix)+string(data) {
		t.Fatalf("AppendMarshal = %q, %v; want the prefix then Marshal's bytes", got, err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != tp.Width || back.Height != tp.Height || back.DPI != tp.DPI {
		t.Fatal("header fields lost")
	}
	if len(back.Minutiae) != len(tp.Minutiae) {
		t.Fatal("minutiae count lost")
	}
	for i := range tp.Minutiae {
		a, b := tp.Minutiae[i], back.Minutiae[i]
		if math.Abs(a.X-b.X) > 0.5 || math.Abs(a.Y-b.Y) > 0.5 {
			t.Fatalf("minutia %d position drift: %+v vs %+v", i, a, b)
		}
		if d := math.Abs(a.Angle - b.Angle); d > 0.001 && d < 2*math.Pi-0.001 {
			t.Fatalf("minutia %d angle drift: %v vs %v", i, a.Angle, b.Angle)
		}
		if a.Kind != b.Kind || a.Quality != b.Quality {
			t.Fatalf("minutia %d metadata lost", i)
		}
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	tp := validTemplate()
	tp.Minutiae[0].Angle = -1
	if _, err := Marshal(tp); err == nil {
		t.Fatal("expected error for invalid template")
	}
	if got, err := AppendMarshal([]byte("kept"), tp); err == nil || string(got) != "kept" {
		t.Fatalf("AppendMarshal of an invalid template = %q, %v; want dst unchanged and an error", got, err)
	}
}

func TestMarshalNilTemplate(t *testing.T) {
	if data, err := Marshal(nil); err == nil || data != nil {
		t.Fatalf("Marshal(nil) = %v, %v; want an error", data, err)
	}
}

func TestUnmarshalBadMagic(t *testing.T) {
	data, _ := Marshal(validTemplate())
	data[0] = 'X'
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	data, _ := Marshal(validTemplate())
	for _, n := range []int{0, 5, headerSize - 1, len(data) - 1} {
		if _, err := Unmarshal(data[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("len %d: want ErrTruncated, got %v", n, err)
		}
	}
}

func TestUnmarshalBadVersion(t *testing.T) {
	data, _ := Marshal(validTemplate())
	data[5] = 99
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("expected version error")
	}
}

func TestUnmarshalBadType(t *testing.T) {
	data, _ := Marshal(validTemplate())
	// Zero out the type bits of the first record.
	data[headerSize] &= 0x3f
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("expected type error")
	}
}

func TestMarshalEmptyTemplate(t *testing.T) {
	tp := &Template{Width: 10, Height: 10, DPI: 500}
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 {
		t.Fatal("empty template grew minutiae")
	}
}

func TestMarshalQualityClamped(t *testing.T) {
	tp := validTemplate()
	tp.Minutiae[0].Quality = 255
	data, err := Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Minutiae[0].Quality != 100 {
		t.Fatalf("quality = %d, want clamp to 100", back.Minutiae[0].Quality)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(xs, ys []uint16, angles []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if len(angles) < n {
			n = len(angles)
		}
		if n > 64 {
			n = 64
		}
		tp := &Template{Width: 800, Height: 750, DPI: 500}
		for i := 0; i < n; i++ {
			kind := Ending
			if i%2 == 1 {
				kind = Bifurcation
			}
			a := angles[i]
			if math.IsNaN(a) || math.IsInf(a, 0) {
				a = 0
			}
			tp.Minutiae = append(tp.Minutiae, Minutia{
				X:       float64(xs[i] % 800),
				Y:       float64(ys[i] % 750),
				Angle:   NormalizeAngle(a),
				Kind:    kind,
				Quality: uint8(i % 101),
			})
		}
		data, err := Marshal(tp)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if back.Count() != tp.Count() {
			return false
		}
		for i := range tp.Minutiae {
			if tp.Minutiae[i].Kind != back.Minutiae[i].Kind {
				return false
			}
			if math.Abs(tp.Minutiae[i].X-back.Minutiae[i].X) > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripEdgeCoordinates(t *testing.T) {
	// A minutia within half a pixel of the window edge must survive the
	// round trip: rounding to the nearest pixel would land exactly on
	// the dimension, which Validate rejects.
	tpl := &Template{Width: 404, Height: 404, DPI: 500, Minutiae: []Minutia{
		{X: 403.6, Y: 403.9, Angle: 1, Kind: Ending, Quality: 50},
		{X: 0.2, Y: 0.4, Angle: 2, Kind: Bifurcation, Quality: 50},
	}}
	data, err := Marshal(tpl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Minutiae[0].X != 403 || back.Minutiae[0].Y != 403 {
		t.Fatalf("edge minutia moved to (%v, %v)", back.Minutiae[0].X, back.Minutiae[0].Y)
	}
}
