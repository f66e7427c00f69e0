package match

import (
	"math"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
)

// referenceMatch is the pre-optimization Hough matcher kept as the
// correctness oracle: a map-backed sparse accumulator, a linear top-K
// insertion scan, and a brute-force O(n·m) pairing per candidate
// transform. It allocates freely and is slow, but its results define
// what the optimized Session path must reproduce bit for bit — the
// differential tests compare the two on randomized corpora. It is also
// the fallback when a pathological template would blow the flat
// accumulator past maxAccCells.
//
// One deliberate deviation from the historical code: pairing
// candidates sort by squared distance (sortPairCands) rather than by
// distance. The orders coincide except when two distinct d² values
// round to the same sqrt — an ulp-level tie the old comparator broke
// by index — so both implementations here share one comparator and the
// study score exports remain byte-identical to the prior release on
// real corpora.
func referenceMatch(gallery, probe *minutiae.Template) (Result, error) {
	if gallery == nil || probe == nil {
		return Result{}, ErrNilTemplate
	}
	ga := gallery.Minutiae
	pr := probe.Minutiae
	if len(ga) == 0 || len(pr) == 0 {
		return Result{}, nil
	}

	// --- Vote: every (probe, gallery) pair proposes the rigid transform
	// that would map the probe minutia exactly onto the gallery one.
	acc := make(map[uint64]int32, len(ga)*len(pr)/2)
	for _, b := range pr {
		for _, a := range ga {
			dTheta := a.Angle - b.Angle
			// Normalize into [0, 2π).
			if dTheta < 0 {
				dTheta += 2 * math.Pi
			}
			if dTheta >= 2*math.Pi {
				dTheta -= 2 * math.Pi
			}
			rotBin := int32(dTheta / rotStep)
			if rotBin >= rotBins {
				rotBin = rotBins - 1
			}
			if rotBin < 0 {
				// Unreachable for finite angles (dTheta is normalized
				// into [0, 2π) above); int32(NaN) is a huge negative,
				// and the fallback contract makes this path total.
				rotBin = 0
			}
			c, s := cosTab[rotBin], sinTab[rotBin]
			rx := b.X*c - b.Y*s
			ry := b.X*s + b.Y*c
			key := packKey(rotBin,
				int32(math.Floor((a.X-rx)*invShift)),
				int32(math.Floor((a.Y-ry)*invShift)))
			acc[key]++
		}
	}

	// --- Select the top-K most-voted cells with a single linear scan.
	topKeys := make([]uint64, 0, candidates)
	topVotes := make([]int32, 0, candidates)
	for k, v := range acc {
		pos := -1
		for i := range topVotes {
			if v > topVotes[i] || (v == topVotes[i] && k < topKeys[i]) {
				pos = i
				break
			}
		}
		switch {
		case pos == -1 && len(topVotes) < candidates:
			topKeys = append(topKeys, k)
			topVotes = append(topVotes, v)
		case pos >= 0:
			if len(topVotes) < candidates {
				topKeys = append(topKeys, 0)
				topVotes = append(topVotes, 0)
			}
			copy(topKeys[pos+1:], topKeys[pos:])
			copy(topVotes[pos+1:], topVotes[pos:])
			topKeys[pos] = k
			topVotes[pos] = v
		}
	}

	gaPts, prPts := points(ga), points(pr)
	best := Result{}
	for i := 0; i < len(topKeys); i++ {
		rot, tx, ty := unpackKey(topKeys[i])
		theta := (float64(rot) + 0.5) * rotStep
		tr := geom.Rigid{
			Theta: theta,
			T: geom.Point{
				X: (float64(tx) + 0.5) * shiftBin,
				Y: (float64(ty) + 0.5) * shiftBin,
			},
			S: 1,
		}
		res := referenceScorePairing(gallery, probe, tr)
		// One refinement round: re-estimate the transform from the pairs
		// and re-pair. Helps recover from coarse accumulator bins.
		if res.Matched >= 3 {
			if refined, ok := estimateRigid(gaPts, prPts, res.Pairs); ok {
				res2 := referenceScorePairing(gallery, probe, refined)
				if res2.Score > res.Score {
					res = res2
				}
			}
		}
		if res.Score > best.Score || (best.Matched == 0 && res.Matched > 0) {
			best = res
		}
	}
	return best, nil
}

// points returns the minutiae's geometry.
func points(ms []minutiae.Minutia) []point {
	pts := make([]point, len(ms))
	for i, m := range ms {
		pts[i] = point{m.X, m.Y, m.Angle}
	}
	return pts
}

// referenceScorePairing pairs minutiae under the transform by scanning
// every (probe, gallery) combination.
func referenceScorePairing(gallery, probe *minutiae.Template, tr geom.Rigid) Result {
	ga, pr := gallery.Minutiae, probe.Minutiae
	var cands []pairCand
	c0, s0 := math.Cos(tr.Theta), math.Sin(tr.Theta)
	for j, b := range pr {
		tx := b.X*c0 - b.Y*s0 + tr.T.X
		ty := b.X*s0 + b.Y*c0 + tr.T.Y
		ta := b.Angle + tr.Theta
		for i, a := range ga {
			dx := tx - a.X
			dy := ty - a.Y
			d2 := dx*dx + dy*dy
			if d2 > distTol*distTol {
				continue
			}
			if angleDiff(ta, a.Angle) > angleTol {
				continue
			}
			cands = append(cands, pairCand{d2: d2, g: int32(i), q: int32(j)})
		}
	}
	sortPairCands(cands)
	usedG := make([]bool, len(ga))
	usedQ := make([]bool, len(pr))
	var pairs [][2]int
	sumD := 0.0
	for _, c := range cands {
		if usedG[c.g] || usedQ[c.q] {
			continue
		}
		usedG[c.g] = true
		usedQ[c.q] = true
		pairs = append(pairs, [2]int{int(c.g), int(c.q)})
		sumD += math.Sqrt(c.d2)
	}
	res := Result{Matched: len(pairs), Transform: tr, Pairs: pairs}
	if len(pairs) > 0 {
		res.MeanResidual = sumD / float64(len(pairs))
	}
	res.Score = scoreFromPairing(len(pairs), res.MeanResidual, distTol, overlapDenom(gallery, probe, tr))
	return res
}
