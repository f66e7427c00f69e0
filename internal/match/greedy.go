package match

import (
	"math"
	"sync"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
)

// GreedyMatcher is a deliberately simpler matcher used as the "diverse
// matcher" in matcher-diversity analyses: it aligns templates by centroid
// and dominant minutia direction only (no Hough search), then pairs
// greedily. It is cheaper and measurably weaker than HoughMatcher —
// exactly the asymmetry diversity studies need.
type GreedyMatcher struct{}

// The greedy matcher's pairing tolerances.
const (
	greedyDistTol  = 16                 // px
	greedyAngleTol = 35 * math.Pi / 180 // radians
)

var _ Matcher = (*GreedyMatcher)(nil)

// greedyScratch follows the hot-path candidate-scratch convention:
// slice-backed candidate and used-set buffers pooled across calls, with
// distances kept squared until selection.
type greedyScratch struct {
	cands        []pairCand
	usedG, usedQ []bool
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// Match implements Matcher. It is safe for concurrent use.
func (*GreedyMatcher) Match(gallery, probe *minutiae.Template) (Result, error) {
	if gallery == nil || probe == nil {
		return Result{}, ErrNilTemplate
	}
	ga, pr := gallery.Minutiae, probe.Minutiae
	if len(ga) == 0 || len(pr) == 0 {
		return Result{}, nil
	}

	// Alignment: rotation from the circular-mean direction difference,
	// translation from centroids.
	theta := circularMeanDiff(ga, pr)
	gcx, gcy := gallery.Centroid()
	pcx, pcy := probe.Centroid()
	c, s := math.Cos(theta), math.Sin(theta)
	tr := geom.Rigid{
		Theta: theta,
		T: geom.Point{
			X: gcx - (pcx*c - pcy*s),
			Y: gcy - (pcx*s + pcy*c),
		},
		S: 1,
	}

	sc := greedyPool.Get().(*greedyScratch)
	cands := sc.cands[:0]
	for j, b := range pr {
		tx := b.X*c - b.Y*s + tr.T.X
		ty := b.X*s + b.Y*c + tr.T.Y
		ta := b.Angle + theta
		for i, a := range ga {
			dx := tx - a.X
			dy := ty - a.Y
			d2 := dx*dx + dy*dy
			if d2 > greedyDistTol*greedyDistTol || angleDiff(ta, a.Angle) > greedyAngleTol {
				continue
			}
			cands = append(cands, pairCand{d2: d2, g: int32(i), q: int32(j)})
		}
	}
	sc.cands = cands
	sortPairCands(cands)
	if cap(sc.usedG) < len(ga) {
		sc.usedG = make([]bool, len(ga))
	}
	if cap(sc.usedQ) < len(pr) {
		sc.usedQ = make([]bool, len(pr))
	}
	usedG := sc.usedG[:len(ga)]
	usedQ := sc.usedQ[:len(pr)]
	clear(usedG)
	clear(usedQ)
	var pairs [][2]int
	sumD := 0.0
	for _, cd := range cands {
		if usedG[cd.g] || usedQ[cd.q] {
			continue
		}
		usedG[cd.g] = true
		usedQ[cd.q] = true
		pairs = append(pairs, [2]int{int(cd.g), int(cd.q)})
		sumD += math.Sqrt(cd.d2)
	}
	greedyPool.Put(sc)
	res := Result{Matched: len(pairs), Transform: tr, Pairs: pairs}
	if len(pairs) > 0 {
		res.MeanResidual = sumD / float64(len(pairs))
	}
	res.Score = scoreFromPairing(len(pairs), res.MeanResidual, greedyDistTol, overlapDenom(gallery, probe, tr))
	return res, nil
}

// circularMeanDiff estimates the rotation between two minutia sets from
// the difference of their circular mean directions.
func circularMeanDiff(ga, pr []minutiae.Minutia) float64 {
	mean := func(ms []minutiae.Minutia) float64 {
		var sx, sy float64
		for _, m := range ms {
			sx += math.Cos(m.Angle)
			sy += math.Sin(m.Angle)
		}
		return math.Atan2(sy, sx)
	}
	return geom.NormalizeAngle(mean(ga) - mean(pr))
}
