package index

import (
	"math"

	"fpinterop/internal/minutiae"
)

// Triplet extraction and quantization are fixed: nothing outside this
// package ever set them, and every enrolled key depends on them, so
// they are constants rather than options. Calibrated for 500-dpi
// templates (≈50–70 minutiae) from the study's sensor models.
const (
	// neighborK is how many nearest neighbours each minutia pairs with
	// to form triplets: up to C(6,2)=15 triplets seeded per minutia
	// before deduplication.
	neighborK = 6
	// maxTriplets caps the triplets indexed per template.
	maxTriplets = 800
	// minSide rejects near-degenerate triangles whose shortest side is
	// below this many pixels.
	minSide = 10.0
	// maxSide rejects spread-out triangles whose longest side exceeds
	// this many pixels; local triplets survive the device-characteristic
	// distortion fields far better than global structure.
	maxSide = 200.0
	// sideBin is the side-length quantization step in pixels.
	sideBin = 16.0
	// angleBins is how many bins the vertex angle features quantize
	// into over [0, 2π), i.e. 45° bins.
	angleBins = 8
	// boundaryMargin is the fraction of a bin within which a probe
	// feature also votes into the neighbouring bin. Larger margins
	// raise recall and lookup cost.
	boundaryMargin = 0.3
)

// angleStep is the vertex-angle quantization step.
var angleStep = 2 * math.Pi / float64(angleBins)

// triplet holds the canonical invariant features of one minutia
// triangle: side lengths in descending order and, per canonical vertex,
// the angle between the ridge direction and the direction to the
// triangle centroid.
type triplet struct {
	sides [3]float64
	betas [3]float64
}

// vertexBefore reports whether vertex x sorts before vertex y under
// the canonical triplet order: descending opposite side, ascending
// vertex index on ties.
//
//fpvet:hotpath
func vertexBefore(opp [3]float64, x, y int) bool {
	if opp[x] != opp[y] {
		return opp[x] > opp[y]
	}
	return x < y
}

// features computes the canonical triplet features, rejecting
// degenerate or over-spread triangles. Vertices are ordered by the
// length of their opposite side (descending), which is invariant to
// rotation, translation, and input order.
func features(a, b, c minutiae.Minutia) (triplet, bool) {
	dab := a.Dist(b)
	dac := a.Dist(c)
	dbc := b.Dist(c)
	// opp[i] is the side opposite vertex i of (a, b, c).
	v := [3]minutiae.Minutia{a, b, c}
	opp := [3]float64{dbc, dac, dab}
	// Descending opposite side with index tie-breaks, via a fixed
	// three-element sorting network: sort.Slice here would put its
	// reflect machinery on the heap once per enumerated triplet.
	order := [3]int{0, 1, 2}
	if vertexBefore(opp, order[1], order[0]) {
		order[0], order[1] = order[1], order[0]
	}
	if vertexBefore(opp, order[2], order[1]) {
		order[1], order[2] = order[2], order[1]
		if vertexBefore(opp, order[1], order[0]) {
			order[0], order[1] = order[1], order[0]
		}
	}
	var t triplet
	for i, vi := range order {
		t.sides[i] = opp[vi]
	}
	if t.sides[2] < minSide || t.sides[0] > maxSide {
		return triplet{}, false
	}
	cx := (a.X + b.X + c.X) / 3
	cy := (a.Y + b.Y + c.Y) / 3
	for i, vi := range order {
		m := v[vi]
		dir := math.Atan2(cy-m.Y, cx-m.X)
		t.betas[i] = minutiae.NormalizeAngle(m.Angle - dir)
	}
	return t, true
}

// The certified enrollment path decides a triplet's primary key from
// squared distances and rotated vertex→centroid vectors, with no atan2,
// Hypot, angle normalisation or division per triplet. Each decision is
// taken only when its input clears a margin far larger than the
// rounding error of either path; otherwise the triplet goes through
// features and primaryKey, so every key equals theirs bit for bit.
// DESIGN.md, "Certified enrollment keys", has the bounds.
const (
	// sideMargin is the relative margin on squared lengths: an order, a
	// side limit or a side bin edge is decided only when the two squared
	// values differ by more than this fraction.
	sideMargin = 1e-9
	// angleMargin is the margin, relative to the vertex→centroid
	// vector's L1 norm, by which the rotated vector must clear an
	// octant edge.
	angleMargin = 1e-9
	// centroidSlack times the template's largest |coordinate| is the
	// angle test's absolute margin for the centroid: the certified
	// path's vertex→centroid vector (three times it, never divided) can
	// stray from three times the exact path's, whose centroid is
	// rounded after a division, by 6 unit roundoffs (2⁻⁵³) of that
	// coordinate; 2⁻⁴⁹ is 16.
	centroidSlack = 0x1p-49
	// leverFloor is the least absolute margin of the angle test: below
	// it the rotated components could be subnormal.
	leverFloor = 1e-200
	// maxCertCoord and maxCertAngle bound the inputs the certified path
	// takes (|X|, |Y| and |Angle|); a template with a minutia beyond
	// them, or with one that is not finite, goes through the exact path
	// whole.
	maxCertCoord = 1 << 30
	maxCertAngle = 64
)

// sideEdges2[k] is the squared lower edge of side bin k, (16k)², up to
// the first bin past maxSide.
var sideEdges2 = func() (e [int(maxSide)/int(sideBin) + 2]float64) {
	for k := range e {
		e[k] = float64(k) * sideBin * float64(k) * sideBin
	}
	return e
}()

// vertex is one minutia as the certified path reads it: its position
// and its ridge direction as a unit vector, computed once per template
// rather than once per triplet.
type vertex struct {
	x, y, cos, sin float64
}

// newVertex is m as certifiedKey reads it.
func newVertex(m minutiae.Minutia) vertex {
	sin, cos := math.Sincos(m.Angle)
	return vertex{x: m.X, y: m.Y, cos: cos, sin: sin}
}

// certifiable reports whether m's fields are finite and within the
// bounds the certified path's error analysis covers.
func certifiable(m minutiae.Minutia) bool {
	return math.Abs(m.X) <= maxCertCoord && math.Abs(m.Y) <= maxCertCoord &&
		math.Abs(m.Angle) <= maxCertAngle
}

// apart reports whether two squared lengths are certainly in different
// order whatever either path rounds: they differ by more than
// sideMargin of their sum.
//
//fpvet:hotpath
func apart(p, q float64) bool {
	return math.Abs(p-q) > sideMargin*(p+q)
}

// sideBinOf returns the bin of a side whose squared length is d2 and
// whether that bin is certain: d2 must clear both squared edges of the
// bin by sideMargin. d2 lies in [minSide², maxSide²].
//
//fpvet:hotpath
func sideBinOf(d2 float64) (uint64, bool) {
	k := int(math.Sqrt(d2) * (1 / sideBin))
	return uint64(k), d2 > sideEdges2[k]*(1+sideMargin) && d2 < sideEdges2[k+1]*(1-sideMargin)
}

// octantOf returns the angle bin of vertex v of a triangle whose
// vertex coordinates sum to (sx, sy) — the 45° octant of the ridge
// angle minus the direction to the centroid — and whether it is
// certain. The direction's angle is never formed: w, three times the
// vertex→centroid vector, conjugated and rotated by the ridge angle,
// has exactly that angle, and its octant follows from the signs of its
// components and which is larger. Each of the three tests must clear
// angleMargin·|w|₁ + floor.
//
//fpvet:hotpath
func octantOf(v *vertex, sx, sy, floor float64) (uint64, bool) {
	wx, wy := sx-3*v.x, sy-3*v.y
	ux := v.cos*wx + v.sin*wy
	uy := v.sin*wx - v.cos*wy
	ax, ay := math.Abs(ux), math.Abs(uy)
	thr := angleMargin*(math.Abs(wx)+math.Abs(wy)) + floor
	sure := ax > thr && ay > thr && math.Abs(ax-ay) > thr
	// Octants by quadrant (uy<0, ux<0) and half (|uy|>|ux|):
	// 0 1 | 3 2 | 7 6 | 4 5.
	const table = 0o54672310 // octant of index i in 3-bit digit i
	i := b2u(uy < 0)<<2 | b2u(ux < 0)<<1 | b2u(ay > ax)
	return table >> (3 * i) & 7, sure
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// certifiedKey is features followed by primaryKey for the triangle
// (a, b, c) in ascending template order, decided without trigonometry:
// ok reports whether the exact path accepts the triangle and key is then
// its primary key. When sure is false some decision fell inside its
// margin, and the caller must take the exact path instead. floor is the
// template's absolute angle margin (keyScratch.floor).
//
//fpvet:hotpath
func certifiedKey(a, b, c *vertex, floor float64) (key uint64, ok, sure bool) {
	// opp[i] is the squared side opposite vertex i of (a, b, c), as
	// features' Hypot sees it: the same coordinate differences.
	opp := [3]float64{sqDist(b, c), sqDist(a, c), sqDist(a, b)}
	lo := min(opp[0], opp[1], opp[2])
	hi := max(opp[0], opp[1], opp[2])
	const min2, max2 = minSide * minSide, maxSide * maxSide
	if lo < min2*(1-sideMargin) || hi > max2*(1+sideMargin) {
		return 0, false, true
	}
	if lo <= min2*(1+sideMargin) || hi >= max2*(1-sideMargin) ||
		!apart(opp[0], opp[1]) || !apart(opp[0], opp[2]) || !apart(opp[1], opp[2]) {
		return 0, false, false
	}
	// rank[i] is vertex i's canonical position: how many opposite sides
	// are longer than its own.
	g01, g02, g12 := b2u(opp[0] > opp[1]), b2u(opp[0] > opp[2]), b2u(opp[1] > opp[2])
	rank := [3]uint64{2 - g01 - g02, 1 + g01 - g12, g02 + g12}
	// The sums the exact path divides by 3 for the centroid, in its
	// order of addition.
	sx := a.x + b.x + c.x
	sy := a.y + b.y + c.y
	sure = true
	for i, v := range [3]*vertex{a, b, c} {
		qs, sideOK := sideBinOf(opp[i])
		qb, angleOK := octantOf(v, sx, sy, floor)
		sure = sure && sideOK && angleOK
		key |= qs<<(34-8*rank[i]) | qb<<(12-6*rank[i])
	}
	return key, true, sure
}

// sqDist is the squared distance between two vertices.
func sqDist(p, q *vertex) float64 {
	dx, dy := p.x-q.x, p.y-q.y
	return dx*dx + dy*dy
}

// packKey packs six quantized features into one uint64: three 8-bit
// side bins and three 6-bit angle bins.
func packKey(qs [3]int, qb [3]int) uint64 {
	return uint64(qs[0])<<34 | uint64(qs[1])<<26 | uint64(qs[2])<<18 |
		uint64(qb[0])<<12 | uint64(qb[1])<<6 | uint64(qb[2])
}

// primaryKey quantizes a triplet to the key it is enrolled under.
func primaryKey(t triplet) uint64 {
	var qs, qb [3]int
	for i := 0; i < 3; i++ {
		qs[i] = clampInt(int(t.sides[i]/sideBin), 0, 255)
		qb[i] = clampInt(int(t.betas[i]/angleStep), 0, angleBins-1)
	}
	return packKey(qs, qb)
}

// appendProbeKeys expands one probe triplet into its multi-probed key
// set: each feature near a bin boundary (within boundaryMargin of it)
// also tries the neighbouring bin, so quantization noise between
// enrollment and probe does not silently drop the vote. At most 2⁶
// keys; typically a handful.
func appendProbeKeys(dst []uint64, t triplet) []uint64 {
	var sideOpts, angleOpts [3][2]int
	var sideN, angleN [3]int
	for i := 0; i < 3; i++ {
		sideN[i] = binOptions(t.sides[i], sideBin, &sideOpts[i])
		for j := 0; j < sideN[i]; j++ {
			sideOpts[i][j] = clampInt(sideOpts[i][j], 0, 255)
		}
		angleN[i] = binOptions(t.betas[i], angleStep, &angleOpts[i])
		for j := 0; j < angleN[i]; j++ {
			// Angle bins wrap around.
			angleOpts[i][j] = (angleOpts[i][j] + angleBins) % angleBins
		}
	}
	for a := 0; a < sideN[0]; a++ {
		for b := 0; b < sideN[1]; b++ {
			for c := 0; c < sideN[2]; c++ {
				qs := [3]int{sideOpts[0][a], sideOpts[1][b], sideOpts[2][c]}
				for d := 0; d < angleN[0]; d++ {
					for e := 0; e < angleN[1]; e++ {
						for f := 0; f < angleN[2]; f++ {
							dst = append(dst, packKey(qs,
								[3]int{angleOpts[0][d], angleOpts[1][e], angleOpts[2][f]}))
						}
					}
				}
			}
		}
	}
	return dst
}

// binOptions quantizes v by step and, when the value sits within
// boundaryMargin·step of a bin boundary, adds the neighbouring bin. It
// returns the number of options written (1 or 2); options may be
// negative (callers clamp or wrap).
func binOptions(v, step float64, out *[2]int) int {
	scaled := v / step
	bin := int(math.Floor(scaled))
	out[0] = bin
	frac := scaled - math.Floor(scaled)
	switch {
	case frac < boundaryMargin:
		out[1] = bin - 1
		return 2
	case frac > 1-boundaryMargin:
		out[1] = bin + 1
		return 2
	default:
		return 1
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// keyScratch holds the buffers one key extraction needs, so the probe
// path and Add reuse them across calls instead of allocating per
// template.
type keyScratch struct {
	keys  []uint64
	seen  keyTable // dedup set: triplets during enumeration, then keys
	verts []vertex // the template's minutiae, for certifiedKey
	floor float64  // certifiedKey's absolute angle margin for them
}

// keyMode is what extract returns per accepted triplet.
type keyMode uint8

const (
	// enrollKeys is the primary key, through certifiedKey with the exact
	// path as its fallback.
	enrollKeys keyMode = iota
	// probeKeys is the multi-probed key set. Multi-probing needs each
	// feature's position inside its bin, so it always takes the exact
	// path.
	probeKeys
	// exactKeys is the primary key through the exact path alone: the
	// oracle the certified path is tested and timed against.
	exactKeys
)

// loadVertices fills ks.verts and ks.floor from ms and reports whether
// every minutia is certifiable; when one is not, the whole template
// takes the exact path.
func (ks *keyScratch) loadVertices(ms []minutiae.Minutia) bool {
	verts := ks.verts[:0]
	reach := 0.0
	for _, m := range ms {
		if !certifiable(m) {
			return false
		}
		reach = max(reach, math.Abs(m.X), math.Abs(m.Y))
		verts = append(verts, newVertex(m))
	}
	ks.verts = verts
	ks.floor = max(leverFloor, centroidSlack*reach)
	return true
}

// neighbor is one candidate in a minutia's K-nearest scan.
type neighbor struct {
	d   float64 // squared distance
	idx int
}

// before orders neighbours by ascending distance with index tie-breaks.
func (a neighbor) before(b neighbor) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

// extract enumerates the template's local triplets in deterministic
// order — each minutia combined with pairs of its neighborK nearest
// neighbours, deduplicated, capped at maxTriplets accepted — and
// returns their keys, as mode says, in ks.keys.
func (ks *keyScratch) extract(ms []minutiae.Minutia, mode keyMode) []uint64 {
	keys := ks.keys[:0]
	n := len(ms)
	if n < 3 {
		return keys
	}
	ks.seen.reset()
	certified := mode == enrollKeys && ks.loadVertices(ms)
	emitted := 0
	for i := 0; i < n && emitted < maxTriplets; i++ {
		// The neighborK nearest under (distance, index), kept sorted by
		// bounded insertion: the same prefix a full sort of all n-1
		// neighbours would yield, since the order is total.
		var near [neighborK]neighbor
		kk := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := ms[i].X - ms[j].X
			dy := ms[i].Y - ms[j].Y
			c := neighbor{d: dx*dx + dy*dy, idx: j}
			p := kk
			if kk < neighborK {
				kk++
			} else {
				p = neighborK - 1
				if !c.before(near[p]) {
					continue
				}
			}
			for ; p > 0 && c.before(near[p-1]); p-- {
				near[p] = near[p-1]
			}
			near[p] = c
		}
		for x := 0; x < kk && emitted < maxTriplets; x++ {
			for y := x + 1; y < kk && emitted < maxTriplets; y++ {
				a, b, c := i, near[x].idx, near[y].idx
				// Canonical sorted indices for deduplication.
				if a > b {
					a, b = b, a
				}
				if b > c {
					b, c = c, b
				}
				if a > b {
					a, b = b, a
				}
				if _, fresh := ks.seen.findOrAdd(uint64(a)<<32 | uint64(b)<<16 | uint64(c)); !fresh {
					continue
				}
				if certified {
					if key, ok, sure := certifiedKey(&ks.verts[a], &ks.verts[b], &ks.verts[c], ks.floor); sure {
						if ok {
							keys = append(keys, key)
							emitted++
						}
						continue
					}
				}
				t, ok := features(ms[a], ms[b], ms[c])
				if !ok {
					continue
				}
				if mode == probeKeys {
					keys = appendProbeKeys(keys, t)
				} else {
					keys = append(keys, primaryKey(t))
				}
				emitted++
			}
		}
	}
	ks.keys = keys
	return keys
}

// templateKeys returns the distinct keys a template is enrolled under,
// in first-occurrence order. A template's triplets often share a key;
// the vote weighs a bucket by how many templates it holds, never by how
// often one template repeats in it, so one posting per (key, template)
// is all the index stores. The result aliases ks.keys.
func (ks *keyScratch) templateKeys(ms []minutiae.Minutia) []uint64 {
	return ks.distinct(ks.extract(ms, enrollKeys))
}

// distinct drops repeats from keys in place, keeping first occurrences.
func (ks *keyScratch) distinct(keys []uint64) []uint64 {
	ks.seen.reset()
	distinct := keys[:0]
	for _, k := range keys {
		if _, fresh := ks.seen.findOrAdd(k); fresh {
			distinct = append(distinct, k)
		}
	}
	return distinct
}
