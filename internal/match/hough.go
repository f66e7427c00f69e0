package match

import (
	"math"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
)

// HoughMatcher is the primary minutiae matcher: a generalized Hough
// transform over candidate rigid alignments followed by tolerance-gated
// greedy pairing and one least-squares refinement pass. It has one
// operating point, the constants below, as the BioEngine it stands in
// for had; the zero value is the matcher.
//
// Match borrows scratch from a shared session pool, so ad-hoc calls stay
// allocation-light; hot loops that need zero steady-state allocations
// (gallery scans, study workers, benchmarks) should hold a Session and
// call Session.Match or Session.MatchPrepared directly.
type HoughMatcher struct{}

var _ Matcher = (*HoughMatcher)(nil)

// The Hough matcher's operating point.
const (
	// distTol is the pairing distance tolerance in pixels (≈0.7 mm at
	// 500 dpi — under two ridge periods).
	distTol = 14
	// angleTol is the pairing angle tolerance in radians (30°).
	angleTol = math.Pi / 6
	// rotBins quantizes candidate rotations into 15° bins.
	rotBins = 24
	// shiftBin is the translation accumulator bin size in px.
	shiftBin = 16
	// invShift scales a translation to its bin.
	invShift = 1.0 / shiftBin
	// candidates is how many top accumulator cells are refined.
	candidates = 6
)

// rotStep is the width of one rotation bin. It is spelled as the
// float64 2π divided at float64 precision — the bits a division at run
// time gives — because the untyped 2*math.Pi/24 is evaluated exactly
// and rounds 1 ulp higher (0x3fd0c152382d7366, not …7365), which moves
// pinned scores.
const rotStep = float64(2*math.Pi) / rotBins

// cosTab and sinTab hold the cosine and sine of every rotation bin's
// centre.
var cosTab, sinTab = rotationTables()

func rotationTables() (c, s [rotBins]float64) {
	for b := range c {
		theta := (float64(b) + 0.5) * rotStep
		c[b], s[b] = math.Cos(theta), math.Sin(theta)
	}
	return c, s
}

// packKey packs accumulator cell coordinates into one uint64. Translation
// bins are offset by 2^15 so negative shifts pack cleanly; templates are
// far smaller than the 16-bit bin range.
func packKey(rot, tx, ty int32) uint64 {
	return uint64(uint32(rot))<<32 | uint64(uint16(tx+1<<15))<<16 | uint64(uint16(ty+1<<15))
}

func unpackKey(k uint64) (rot, tx, ty int32) {
	rot = int32(k >> 32)
	tx = int32(uint16(k>>16)) - 1<<15
	ty = int32(uint16(k)) - 1<<15
	return rot, tx, ty
}

// Match implements Matcher. It is safe for concurrent use; scratch
// comes from the shared session pool and the returned pairs are copied
// out, so the Result stays valid indefinitely.
func (m *HoughMatcher) Match(gallery, probe *minutiae.Template) (Result, error) {
	s := AcquireSession()
	res, err := s.Match(gallery, probe)
	res = detachResult(res)
	s.Release()
	return res, err
}

// estimateRigid computes the least-squares rigid transform (rotation +
// translation, no scale) mapping probe minutiae onto their paired gallery
// minutiae — the classic Procrustes/Kabsch solution in 2-D.
//
//fpvet:hotpath
func estimateRigid(ga, pr []point, pairs [][2]int) (geom.Rigid, bool) {
	n := len(pairs)
	if n < 2 {
		return geom.Rigid{}, false
	}
	var gcx, gcy, pcx, pcy float64
	for _, pair := range pairs {
		g, q := ga[pair[0]], pr[pair[1]]
		gcx += g.x
		gcy += g.y
		pcx += q.x
		pcy += q.y
	}
	fn := float64(n)
	gcx /= fn
	gcy /= fn
	pcx /= fn
	pcy /= fn
	// Cross-covariance terms.
	var sxx, sxy, syx, syy float64
	for _, pair := range pairs {
		g, q := ga[pair[0]], pr[pair[1]]
		px, py := q.x-pcx, q.y-pcy
		gx, gy := g.x-gcx, g.y-gcy
		sxx += px * gx
		sxy += px * gy
		syx += py * gx
		syy += py * gy
	}
	theta := math.Atan2(sxy-syx, sxx+syy)
	c, s := math.Cos(theta), math.Sin(theta)
	tx := gcx - (pcx*c - pcy*s)
	ty := gcy - (pcx*s + pcy*c)
	return geom.Rigid{Theta: theta, T: geom.Point{X: tx, Y: ty}, S: 1}, true
}
