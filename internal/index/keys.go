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
	keys []uint64
	seen keyTable // dedup set: triplets during enumeration, then keys
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
// returns their keys in ks.keys: the primary key per triplet for an
// enrolled template, the multi-probed key set when probe is true.
func (ks *keyScratch) extract(ms []minutiae.Minutia, probe bool) []uint64 {
	keys := ks.keys[:0]
	n := len(ms)
	if n < 3 {
		return keys
	}
	ks.seen.reset()
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
				t, ok := features(ms[a], ms[b], ms[c])
				if !ok {
					continue
				}
				if probe {
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
	keys := ks.extract(ms, false)
	ks.seen.reset()
	distinct := keys[:0]
	for _, k := range keys {
		if _, fresh := ks.seen.findOrAdd(k); fresh {
			distinct = append(distinct, k)
		}
	}
	return distinct
}
