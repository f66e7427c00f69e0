package match

import (
	"math"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
)

// HoughMatcher is the primary minutiae matcher: a generalized Hough
// transform over candidate rigid alignments followed by tolerance-gated
// greedy pairing and one least-squares refinement pass. The zero value is
// ready to use with production defaults.
//
// Match borrows scratch from a shared session pool, so ad-hoc calls stay
// allocation-light; hot loops that need zero steady-state allocations
// (gallery scans, study workers, benchmarks) should hold a Session and
// call Session.Match or Session.MatchPrepared directly.
type HoughMatcher struct {
	// DistTol is the pairing distance tolerance in pixels (default 14,
	// ≈0.7 mm at 500 dpi — under two ridge periods).
	DistTol float64
	// AngleTol is the pairing angle tolerance in radians (default 30°).
	AngleTol float64
	// RotBins quantizes candidate rotations (default 24 → 15° bins).
	RotBins int
	// ShiftBin is the translation accumulator bin size in px (default 16).
	ShiftBin float64
	// Candidates is how many top accumulator cells to refine (default 6).
	Candidates int
}

var _ Matcher = (*HoughMatcher)(nil)

// params resolves the defaults: a zero field means its default, and so
// does a bin or candidate count that cannot be one (negative) — a
// misconfigured matcher must not take the process down on its first
// comparison.
func (m *HoughMatcher) params() HoughMatcher {
	p := *m
	if p.DistTol == 0 {
		p.DistTol = 14
	}
	if p.AngleTol == 0 {
		p.AngleTol = math.Pi / 6
	}
	if p.RotBins <= 0 {
		p.RotBins = 24
	}
	if p.ShiftBin == 0 {
		p.ShiftBin = 16
	}
	if p.Candidates <= 0 {
		p.Candidates = 6
	}
	return p
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
	s := AcquireSession(m)
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
