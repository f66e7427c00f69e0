// Package match implements fingerprint minutiae matching. The primary
// matcher (HoughMatcher) stands in for the commercial Identix BioEngine
// SDK the paper used: it estimates the rigid alignment between two
// templates with a generalized Hough transform, pairs minutiae under
// distance/angle tolerances, and maps the pairing onto a BioEngine-like
// similarity score scale where impostor comparisons essentially never
// exceed 7 and well-captured genuine pairs score well above it.
//
// A deliberately simpler second matcher (GreedyMatcher) provides the
// "diverse matchers" axis the paper lists as further work.
package match

import (
	"errors"
	"math"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
)

// ErrNilTemplate reports a nil gallery or probe.
var ErrNilTemplate = errors.New("match: nil template")

// Result is the outcome of one comparison.
type Result struct {
	// Score is the similarity on the BioEngine-like scale [0, ~30].
	// Higher means more likely the same finger.
	Score float64
	// Matched is the number of paired minutiae.
	Matched int
	// MeanResidual is the mean distance (px) between paired minutiae
	// after alignment.
	MeanResidual float64
	// Transform is the estimated probe→gallery rigid alignment.
	Transform geom.Rigid
	// Pairs holds the matched index pairs (gallery, probe) for consumers
	// that need correspondences (e.g. inter-sensor calibration).
	Pairs [][2]int
}

// Matcher compares two minutiae templates.
type Matcher interface {
	// Match compares gallery and probe templates and returns a similarity
	// result. Implementations must be safe for concurrent use.
	Match(gallery, probe *minutiae.Template) (Result, error)
}

// scoreFromPairing maps a pairing onto the similarity scale. denom is the
// number of minutiae that *could* have matched (the overlap-normalized
// reference count). The shape (power law in the matched fraction, weighted
// by geometric tightness) is calibrated so impostor scores concentrate
// below 3 with an extreme tail under 7, while same-device genuine pairs
// concentrate above 7.
func scoreFromPairing(matched int, meanResidual, tol float64, denom int) float64 {
	if matched < 2 || denom <= 0 {
		return 0
	}
	ratio := float64(matched) / float64(denom)
	if ratio > 1 {
		ratio = 1
	}
	tightness := 1 - meanResidual/tol
	if tightness < 0 {
		tightness = 0
	}
	raw := ratio * (0.40 + 0.60*tightness)
	return 30 * math.Pow(raw, 1.6)
}

// overlapDenom computes the overlap-normalized reference count for a
// comparison under a probe→gallery transform: the smaller of (gallery
// minutiae whose inverse image lies inside the probe window) and (probe
// minutiae whose image lies inside the gallery window). Normalizing by the
// overlap rather than raw template sizes keeps small-platen sensors (Seek
// II) from being penalized for imaging less of the finger. A floor of half
// the smaller template count prevents tiny accidental overlaps from
// inflating impostor scores.
func overlapDenom(gallery, probe *minutiae.Template, tr geom.Rigid) int {
	// Both loops inline geom.Rigid.Apply with the rotation hoisted: the
	// per-point expressions (rotate, scale, translate) are unchanged, so
	// the counts are identical, but the trig runs twice per call instead
	// of twice per minutia. The reference and the greedy matcher call
	// this; Session.scorePairing counts the same two sets with the same
	// expressions inside its pairing pass.
	inv := tr.Invert()
	ic, is := math.Cos(inv.Theta), math.Sin(inv.Theta)
	pw, ph := float64(probe.Width), float64(probe.Height)
	gIn := 0
	for _, g := range gallery.Minutiae {
		x := (g.X*ic-g.Y*is)*inv.S + inv.T.X
		y := (g.X*is+g.Y*ic)*inv.S + inv.T.Y
		if x >= 0 && x < pw && y >= 0 && y < ph {
			gIn++
		}
	}
	ts := tr.S
	if ts == 0 {
		ts = 1
	}
	tc, tsn := math.Cos(tr.Theta), math.Sin(tr.Theta)
	gw, gh := float64(gallery.Width), float64(gallery.Height)
	pIn := 0
	for _, q := range probe.Minutiae {
		x := (q.X*tc-q.Y*tsn)*ts + tr.T.X
		y := (q.X*tsn+q.Y*tc)*ts + tr.T.Y
		if x >= 0 && x < gw && y >= 0 && y < gh {
			pIn++
		}
	}
	return flooredDenom(gIn, pIn, len(gallery.Minutiae), len(probe.Minutiae))
}

// flooredDenom turns the two overlap counts into the reference count:
// the smaller of them, floored at half the smaller template and at 5.
func flooredDenom(gIn, pIn, nGallery, nProbe int) int {
	return max(min(gIn, pIn), (min(nGallery, nProbe)+1)/2, 5)
}

// angleDiff returns the absolute angular difference in [0, π].
func angleDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d >= 2*math.Pi {
		// Below 2π the remainder is d itself, bit for bit (and NaN stays
		// NaN), so the common case skips the call.
		d = math.Mod(d, 2*math.Pi)
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}
