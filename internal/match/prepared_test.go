package match

import (
	"encoding/binary"
	"math"
	"testing"

	"fpinterop/internal/minutiae"
)

// sameTemplate fails unless got equals want field by field, coordinates
// and angles compared by their bits (NaN payloads and the sign of zero
// included).
func sameTemplate(t *testing.T, label string, want, got *minutiae.Template) {
	t.Helper()
	if got.Width != want.Width || got.Height != want.Height || got.DPI != want.DPI {
		t.Fatalf("%s: window %dx%d at %d dpi, want %dx%d at %d", label,
			got.Width, got.Height, got.DPI, want.Width, want.Height, want.DPI)
	}
	if len(got.Minutiae) != len(want.Minutiae) {
		t.Fatalf("%s: %d minutiae, want %d", label, len(got.Minutiae), len(want.Minutiae))
	}
	for i, w := range want.Minutiae {
		g := got.Minutiae[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Angle) != math.Float64bits(w.Angle) || g.Kind != w.Kind || g.Quality != w.Quality {
			t.Fatalf("%s: minutia %d is %+v, want %+v", label, i, g, w)
		}
	}
}

// minutiaSize is the bytes fuzzTemplate consumes per minutia: three
// float64 bit patterns, the kind and the quality.
const minutiaSize = 26

// fuzzTemplate decodes raw into minutiae, any bit pattern allowed.
func fuzzTemplate(w, h, dpi int64, raw []byte) *minutiae.Template {
	tpl := &minutiae.Template{Width: int(w), Height: int(h), DPI: int(dpi)}
	for ; len(raw) >= minutiaSize; raw = raw[minutiaSize:] {
		tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
			X:       math.Float64frombits(binary.LittleEndian.Uint64(raw[0:])),
			Y:       math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
			Angle:   math.Float64frombits(binary.LittleEndian.Uint64(raw[16:])),
			Kind:    minutiae.Type(raw[24]),
			Quality: raw[25],
		})
	}
	return tpl
}

// fuzzBytes is fuzzTemplate's inverse over the minutiae.
func fuzzBytes(ms []minutiae.Minutia) []byte {
	var raw []byte
	for _, m := range ms {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(m.X))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(m.Y))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(m.Angle))
		raw = append(raw, byte(m.Kind), m.Quality)
	}
	return raw
}

// FuzzPreparedTemplateRoundTrip: a preparation is a lossless copy of
// its template. For any template Prepare takes — NaN and infinite
// coordinates, angles outside [0, 2π), unknown kinds, gridless
// preparations, more minutiae than the grid's 16-bit offsets cover —
// Template and TemplateInto rebuild it field for field and bit for bit,
// and the codec cannot tell the rebuilt template from the original.
func FuzzPreparedTemplateRoundTrip(f *testing.F) {
	sensorLike := fuzzBytes(syntheticTemplate(1, 50).Minutiae)
	f.Add(int64(330), int64(400), int64(500), false, sensorLike)
	f.Add(int64(330), int64(400), int64(500), true, sensorLike[:3*minutiaSize])
	f.Add(int64(0), int64(-1), int64(0), false, []byte{})
	f.Add(int64(1<<40), int64(7), int64(-500), false, sensorLike[:2*minutiaSize])
	odd := fuzzBytes([]minutiae.Minutia{
		{X: math.NaN(), Y: 3, Angle: 1, Kind: minutiae.Ending, Quality: 255},
		{X: math.Copysign(0, -1), Y: math.Inf(1), Angle: 7, Kind: 0},
		{X: 5, Y: 5, Angle: -1, Kind: 255, Quality: 101},
		{X: math.Float64frombits(0x7ff0000000000001), Y: 1, Angle: 2 * math.Pi, Kind: minutiae.Bifurcation},
	})
	f.Add(int64(404), int64(442), int64(500), false, odd)
	f.Fuzz(func(t *testing.T, w, h, dpi int64, many bool, raw []byte) {
		tpl := fuzzTemplate(w, h, dpi, raw)
		if many && len(tpl.Minutiae) > 0 {
			// Past math.MaxUint16 minutiae the grid's offsets overflow
			// and the preparation is gridless.
			for len(tpl.Minutiae) <= math.MaxUint16 {
				tpl.Minutiae = append(tpl.Minutiae, tpl.Minutiae...)
			}
		}
		want, wantErr := minutiae.Marshal(tpl)
		g := (&HoughMatcher{}).Prepare(tpl)
		got := g.Template()
		sameTemplate(t, "Template", tpl, got)
		gotBytes, gotErr := minutiae.Marshal(got)
		if (gotErr == nil) != (wantErr == nil) || string(gotBytes) != string(want) {
			t.Fatalf("Marshal of the rebuilt template: %v, %d bytes; of the original: %v, %d bytes",
				gotErr, len(gotBytes), wantErr, len(want))
		}

		// A scratch that held a larger template before.
		scratch := fuzzTemplate(1, 2, 3, append(raw, raw...))
		g.TemplateInto(scratch)
		sameTemplate(t, "TemplateInto", tpl, scratch)
	})
}
