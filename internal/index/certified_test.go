package index

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// quantise round-trips a template through the codec, as every template
// a server decodes off the wire has been: integer pixel coordinates and
// angles on a 1/65536-turn grid.
func quantise(tb testing.TB, tpl *minutiae.Template) *minutiae.Template {
	tb.Helper()
	data, err := minutiae.Marshal(tpl)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := minutiae.Unmarshal(data)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// benchShapedTemplates is the repository benchmark's gallery: n
// codec-quantised D0 captures of its seed-2013 cohort.
func benchShapedTemplates(tb testing.TB, n int) []*minutiae.Template {
	tb.Helper()
	cohort := population.NewCohort(rng.New(2013).Child("bench"), population.CohortOptions{Size: n})
	out := captureGallery(tb, cohort, "D0")
	for i, tpl := range out {
		out[i] = quantise(tb, tpl)
	}
	return out
}

// fallbacks enumerates ms's triplets as extract does and returns how
// many reached certifiedKey and how many of those it left to the exact
// path.
func fallbacks(ms []minutiae.Minutia) (evaluated, unsure int) {
	var ks keyScratch
	certified := ks.loadVertices(ms)
	referenceTriplets(ms, func(a, b, c minutiae.Minutia) bool {
		va, vb, vc := newVertex(a), newVertex(b), newVertex(c)
		evaluated++
		_, ok, sure := certifiedKey(&va, &vb, &vc, ks.floor)
		if !certified || !sure {
			unsure++
			_, ok = features(a, b, c)
		}
		return ok
	})
	return evaluated, unsure
}

// assertCertifiedEqualsExact fails unless ms's enrollment keys, in order
// and with multiplicity, are the exact path's.
func assertCertifiedEqualsExact(t testing.TB, name string, ms []minutiae.Minutia) {
	t.Helper()
	var ks, ex keyScratch
	got := ks.extract(ms, enrollKeys)
	want := ex.extract(ms, exactKeys)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: certified keys differ from the exact path at %d (%d vs %d keys)", name, i, len(got), len(want))
	}
	if !slices.Equal(ks.templateKeys(ms), ex.distinct(ex.extract(ms, exactKeys))) {
		t.Fatalf("%s: templateKeys differ from the exact path's distinct keys", name)
	}
}

// TestTemplateKeysCertifiedEqualsExact holds the enrollment keys of the
// certified path to features + primaryKey over every device, on raw
// sub-pixel captures and on their codec-quantised round trips: 10,000
// templates in all (1,000 under -short).
func TestTemplateKeysCertifiedEqualsExact(t *testing.T) {
	subjects := 1000
	if testing.Short() {
		subjects = 100
	}
	cohort := population.NewCohort(rng.New(45), population.CohortOptions{Size: subjects})
	templates := 0
	for _, dev := range sensor.Profiles() {
		var evaluated, unsure [2]int
		for _, raw := range captureGallery(t, cohort, dev.ID) {
			for form, tpl := range []*minutiae.Template{raw, quantise(t, raw)} {
				assertCertifiedEqualsExact(t, dev.ID, tpl.Minutiae)
				e, u := fallbacks(tpl.Minutiae)
				evaluated[form] += e
				unsure[form] += u
				templates++
			}
		}
		t.Logf("%s: fallback share %.3f %% raw, %.3f %% quantised", dev.ID,
			100*float64(unsure[0])/float64(evaluated[0]), 100*float64(unsure[1])/float64(evaluated[1]))
	}
	if templates < 10*subjects {
		t.Fatalf("compared %d templates; want %d", templates, 10*subjects)
	}
}

// TestCertifiedFallbackShare bounds how often the benchmark's gallery
// leaves the certified path: under 1 % of its triplets.
func TestCertifiedFallbackShare(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	evaluated, unsure := 0, 0
	for _, tpl := range benchShapedTemplates(t, n) {
		e, u := fallbacks(tpl.Minutiae)
		evaluated += e
		unsure += u
	}
	share := float64(unsure) / float64(evaluated)
	t.Logf("%d of %d triplets (%.3f %%) take the exact path", unsure, evaluated, 100*share)
	if share >= 0.01 {
		t.Fatalf("fallback share %.3f %%; want under 1 %%", 100*share)
	}
}

// at is a minutia at (x, y) with ridge angle a.
func at(x, y, a float64) minutiae.Minutia {
	return minutiae.Minutia{X: x, Y: y, Angle: a, Kind: minutiae.Ending}
}

// withAngles returns pts with every angle on the 45° octant edges in
// turn, and then on a spread of angles that sit on no edge.
func withAngles(pts [][2]float64) [][]minutiae.Minutia {
	var out [][]minutiae.Minutia
	angles := []float64{0, 0.3, 1.1, 2.9, 4.4, 5.9}
	for k := range angleBins {
		angles = append(angles, float64(k)*angleStep)
	}
	for _, a := range angles {
		for shift := range len(pts) {
			ms := make([]minutiae.Minutia, len(pts))
			for i, p := range pts {
				ms[i] = at(p[0], p[1], a+float64((i+shift)%len(pts))*angleStep)
				ms[i].Angle = math.Mod(ms[i].Angle, 2*math.Pi)
			}
			out = append(out, ms)
		}
	}
	return out
}

// lattice is an n×n grid of step px, every distance a tie with many
// others.
func lattice(n int, step float64) [][2]float64 {
	var pts [][2]float64
	for i := range n {
		for j := range n {
			pts = append(pts, [2]float64{float64(i) * step, float64(j) * step})
		}
	}
	return pts
}

// TestTemplateKeysCertifiedHandBuilt aims at every margin the certified
// path checks, and at the inputs it refuses outright: each case must
// give the exact path's keys, and those built to sit on a boundary must
// actually fall back.
func TestTemplateKeysCertifiedHandBuilt(t *testing.T) {
	boundary := map[string][][2]float64{
		// |ab| = |ac| = 50: the two longest sides tie.
		"distance tie": {{0, 0}, {50, 0}, {30, 40}},
		// A 5×5 grid of 7 px: ties everywhere on the quantised grid.
		"quantised lattice": lattice(5, 7),
		// b is the midpoint of ac, so it is the centroid: no direction.
		"vertex at centroid": {{0, 0}, {20, 0}, {40, 0}},
		// Collinear without a tie: every vertex→centroid vector lies on
		// the x axis, an octant edge for angles on one.
		"collinear": {{0, 0}, {15, 0}, {40, 0}},
		// Vertex a's vector to the centroid points along +x, or along
		// the diagonal (15, 15): angles on octant edges land on an edge.
		"octant edges": {{0, 0}, {30, 10}, {30, -10}},
		"diagonal":     {{0, 0}, {40, 0}, {5, 45}},
		// Sides of exactly minSide and maxSide, and multiples of 16 px
		// (48-64-80): limits and bin edges.
		"side 10":         {{0, 0}, {10, 0}, {3, 40}},
		"side 200":        {{0, 0}, {200, 0}, {60, 90}},
		"sides 16k":       {{0, 0}, {48, 0}, {0, 64}},
		"side 32 and 112": {{0, 0}, {32, 0}, {7, 112}},
	}
	var evaluated, unsure int
	for name, pts := range boundary {
		for _, ms := range withAngles(pts) {
			assertCertifiedEqualsExact(t, name, ms)
			e, u := fallbacks(ms)
			evaluated += e
			unsure += u
		}
		if evaluated == 0 || unsure == 0 {
			t.Fatalf("%s: %d of %d triplets fell back; the case misses its boundary", name, unsure, evaluated)
		}
		evaluated, unsure = 0, 0
	}

	// Inputs the certified path refuses for the whole template, next to
	// ordinary minutiae that would otherwise take it.
	base := []minutiae.Minutia{at(100, 100, 0.5), at(130, 105, 2.1), at(115, 140, 4.0), at(90, 125, 5.5)}
	for name, m := range map[string]minutiae.Minutia{
		"NaN x":          at(math.NaN(), 110, 1),
		"NaN angle":      at(120, 110, math.NaN()),
		"+Inf y":         at(120, math.Inf(1), 1),
		"-Inf x":         at(math.Inf(-1), 110, 1),
		"+Inf angle":     at(120, 110, math.Inf(1)),
		"max float":      at(math.MaxFloat64, 110, 1),
		"past coord cap": at(maxCertCoord*2, 110, 1),
		"huge angle":     at(120, 110, 1e10),
	} {
		ms := append(slices.Clone(base), m)
		var ks keyScratch
		if ks.loadVertices(ms) {
			t.Fatalf("%s: the certified path took a template it must refuse", name)
		}
		assertCertifiedEqualsExact(t, name, ms)
	}
	// Huge coordinates still inside the bound, and tiny ones: the
	// certified path runs, and must agree.
	for name, off := range map[string]float64{"at coord cap": maxCertCoord - 400, "negative cap": -maxCertCoord + 100, "subnormal": 0} {
		ms := slices.Clone(base)
		for i := range ms {
			ms[i].X += off
			ms[i].Y += off
		}
		ms = append(ms, at(off+math.SmallestNonzeroFloat64, off, 3))
		var ks keyScratch
		if !ks.loadVertices(ms) {
			t.Fatalf("%s: the certified path refused a template inside its bounds", name)
		}
		assertCertifiedEqualsExact(t, name, ms)
	}

	// A dense template with far more triplets than the cap: the cap
	// must count the same triplets on both paths.
	src := rng.New(451)
	var dense []minutiae.Minutia
	for range 300 {
		dense = append(dense, at(src.Float64()*400, src.Float64()*400, src.Float64()*2*math.Pi))
	}
	var ks keyScratch
	if n := len(ks.extract(dense, enrollKeys)); n != maxTriplets {
		t.Fatalf("dense template gave %d triplets; want the cap, %d", n, maxTriplets)
	}
	assertCertifiedEqualsExact(t, "past the triplet cap", dense)
	assertCertifiedEqualsExact(t, "past the cap, quantised", quantise(t, &minutiae.Template{Width: 400, Height: 400, DPI: 500, Minutiae: dense}).Minutiae)
}

// TestTemplateKeysScratchLinear holds a template of 4,096 minutiae to
// O(n) scratch: extraction keeps per-minutia vertices, the triplet
// dedup set and the key list, never a table over minutia pairs. On a
// 150 px lattice every triangle has a side over maxSide, so the
// enumeration runs over every minutia, not just up to the cap.
func TestTemplateKeysScratchLinear(t *testing.T) {
	pts := lattice(64, 150)
	ms := make([]minutiae.Minutia, len(pts))
	for i, p := range pts {
		ms[i] = at(p[0], p[1], float64(i%7))
	}
	var ks keyScratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keys := ks.templateKeys(ms)
	runtime.ReadMemStats(&after)
	if len(keys) != 0 {
		t.Fatalf("lattice gave %d keys; want 0", len(keys))
	}
	n := uint64(len(ms))
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096*n {
		t.Fatalf("extraction over %d minutiae allocated %d B (%d B each); want O(n), under 4 KB each", n, got, got/n)
	}
	if c := cap(ks.verts); c > 2*len(ms) {
		t.Fatalf("vertex scratch holds %d for %d minutiae", c, len(ms))
	}
}

// decodeFuzzMinutiae reads 7-byte records: a mode byte, x and y as
// int16, and an angle as uint16. The mode's low bits put x and y on a
// whole-pixel grid (ties), a quarter-pixel grid, a 1/256 px grid, or on
// extremes (NaN, ±Inf, past and at the coordinate bound, subnormal);
// its next bits put the angle on the codec's grid, on an octant edge,
// on a raw radian scale past the angle bound, or on an extreme.
func decodeFuzzMinutiae(data []byte) []minutiae.Minutia {
	extremes := [8]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		maxCertCoord, -maxCertCoord * 2, math.SmallestNonzeroFloat64, 0}
	var ms []minutiae.Minutia
	for ; len(data) >= 7 && len(ms) < 512; data = data[7:] {
		mode := data[0]
		xi := int16(binary.LittleEndian.Uint16(data[1:]))
		yi := int16(binary.LittleEndian.Uint16(data[3:]))
		ai := binary.LittleEndian.Uint16(data[5:])
		var x, y float64
		switch mode & 3 {
		case 0:
			x, y = float64(xi), float64(yi)
		case 1:
			x, y = float64(xi)/4, float64(yi)/4
		case 2:
			x, y = float64(xi)/256, float64(yi)/256
		default:
			x, y = extremes[uint16(xi)%8], float64(yi)
		}
		var a float64
		switch mode >> 2 & 3 {
		case 0:
			a = float64(ai) / 65536 * 2 * math.Pi
		case 1:
			a = float64(ai%angleBins) * angleStep
		case 2:
			a = float64(ai) / 1000
		default:
			a = extremes[ai%8]
		}
		ms = append(ms, at(x, y, a))
	}
	return ms
}

// FuzzTemplateKeysMatchExact checks the certified enrollment keys
// against the exact path on arbitrary minutiae: grids that tie,
// octant-edge angles, extremes and non-finite values.
func FuzzTemplateKeysMatchExact(f *testing.F) {
	record := func(mode byte, x, y int16, a uint16) []byte {
		var r [7]byte
		r[0] = mode
		binary.LittleEndian.PutUint16(r[1:], uint16(x))
		binary.LittleEndian.PutUint16(r[3:], uint16(y))
		binary.LittleEndian.PutUint16(r[5:], a)
		return r[:]
	}
	var tie, edges, grid, extreme []byte
	for _, p := range [][2]int16{{0, 0}, {50, 0}, {30, 40}, {90, 20}} {
		tie = append(tie, record(0, p[0], p[1], 1000)...)
	}
	for i, p := range [][2]int16{{0, 0}, {30, 10}, {30, -10}, {48, 0}, {0, 64}} {
		edges = append(edges, record(1<<2, p[0], p[1], uint16(i))...)
	}
	for i, p := range lattice(6, 9) {
		grid = append(grid, record(byte(i%3), int16(p[0]), int16(p[1]), uint16(i*977))...)
	}
	extreme = append(slices.Clone(tie), record(3, 0, 20, 5)...)
	extreme = append(extreme, record(3<<2, 10, 20, 0)...)
	for _, seed := range [][]byte{tie, edges, grid, extreme} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertCertifiedEqualsExact(t, "fuzz", decodeFuzzMinutiae(data))
	})
}

// BenchmarkTemplateKeys times one template's enrollment keys — the
// extraction and the dedup templateKeys runs — on the benchmark's
// gallery, through the certified path and through the exact path alone.
// Run it with -cpu 1.
func BenchmarkTemplateKeys(b *testing.B) {
	tpls := benchShapedTemplates(b, 1000)
	for _, bc := range []struct {
		name string
		mode keyMode
	}{{"certified", enrollKeys}, {"exact", exactKeys}} {
		b.Run(bc.name, func(b *testing.B) {
			var ks keyScratch
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				ks.distinct(ks.extract(tpls[i%len(tpls)].Minutiae, bc.mode))
			}
		})
	}
}

// TestTemplateKeysCertifiedNearBoundaries puts decisions a few units in
// the last place from their boundary, where the two paths' roundings
// can disagree: two sides a hair apart in length, a side a hair from a
// bin edge or a limit, a vertex→centroid direction a hair from an
// octant edge — around the origin, where the exact path's own angle
// error dominates, and near the coordinate bound, where its rounded
// centroid does. A margin too small to cover the rounding shows here as
// a key that differs: sideMargin, angleMargin or centroidSlack set to 0
// each fails this test.
func TestTemplateKeysCertifiedNearBoundaries(t *testing.T) {
	src := rng.New(452)
	hair := func(scale float64) float64 { return scale * (1 + (src.Float64()-0.5)*1e-14) }
	for range 20000 {
		x0, y0 := src.Float64()*500, src.Float64()*500
		var pts [3][2]float64
		switch src.Intn(5) {
		case 0: // |ab| and |ac| a hair apart
			l, phi := 16+src.Float64()*150, 0.4+src.Float64()*2
			pts = [3][2]float64{{x0, y0}, {x0 + l, y0}, {x0 + hair(l)*math.Cos(phi), y0 + hair(l)*math.Sin(phi)}}
		case 1: // |ab| a hair from a bin edge or a side limit
			edges := []float64{minSide, maxSide, 32, 48, 64, 96, 128, 176}
			l, phi := hair(edges[src.Intn(len(edges))]), src.Float64()*2*math.Pi
			pts = [3][2]float64{{x0, y0}, {x0 + l*math.Cos(phi), y0 + l*math.Sin(phi)}, {x0 + 5 + src.Float64()*20, y0 + 40 + src.Float64()*30}}
		case 2: // an isosceles triangle, its apex's direction on an axis
			l := 20 + src.Float64()*80
			pts = [3][2]float64{{x0, y0}, {x0 + l, hair(y0 + l/2)}, {x0 + l, y0 - l/2}}
		default: // a's direction a hair off an edge, around the origin or
			// near the coordinate bound, where the centroid rounds coarsely
			far := src.Intn(2) == 0
			hairAngle := 1e-14
			var ox, oy float64
			if far {
				hairAngle, ox, oy = 1e-7, maxCertCoord/2+src.Float64()*1e6, -maxCertCoord/2
			}
			psi := float64(src.Intn(8))*angleStep + (src.Float64()-0.5)*hairAngle
			t := 20 + src.Float64()*40
			a := [2]float64{ox - t*math.Cos(psi)/3, oy - t*math.Sin(psi)/3}
			cx, cy := a[0]+t*math.Cos(psi), a[1]+t*math.Sin(psi)
			b := [2]float64{cx + 30*src.Float64() - 15, cy + 30*src.Float64() - 15}
			pts = [3][2]float64{a, b, {3*cx - a[0] - b[0], 3*cy - a[1] - b[1]}}
		}
		ms := make([]minutiae.Minutia, 3)
		for i, p := range pts {
			a := math.Mod(float64(src.Intn(8))*angleStep+hair(1)-1, 2*math.Pi)
			if a < 0 {
				a += 2 * math.Pi
			}
			ms[i] = at(p[0], p[1], a)
		}
		assertCertifiedEqualsExact(t, "near boundary", ms)
	}
}
