// Package calib implements the interoperability mitigations the paper's
// related-work and further-work sections point at:
//
//   - Ross–Nadgir inter-sensor calibration: learn the average non-rigid
//     (thin-plate spline) deformation between a device pair from matched
//     minutiae correspondences, then undo it at verification time.
//     CalibratedMatcher keeps the better of the plain and the corrected
//     score, so it is compared with the plain matcher at equal FMR. At
//     paper scale it helps on every live-scan device pair without a D3
//     gallery. It hurts where the fit keeps few confident pairs (D1, D2
//     and D3 against ink, either way round) and on D3 galleries against
//     D0 and D2 probes (EXPERIMENTS.md, "Calibration at equal FMR").
//   - Poh-style quality-conditioned score normalization: z-normalize
//     similarity scores against the impostor statistics of the observed
//     (gallery quality, probe quality) pair, so one global threshold
//     behaves consistently across quality conditions.
//   - Multi-sample fusion: combine scores from several samples of the
//     same finger (sum rule) to recover FNMR.
package calib

import (
	"fmt"

	"fpinterop/internal/geom"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
)

// TemplatePair is one training example for calibration: two impressions
// of the same finger, one per device.
type TemplatePair struct {
	Gallery, Probe *minutiae.Template
}

// Calibration is a learned inter-sensor deformation model mapping
// rigid-aligned probe coordinates onto the gallery device's frame.
type Calibration struct {
	warp *geom.TPS
	// TrainingPairs and ControlPoints record how the model was fitted.
	TrainingPairs, ControlPoints int
}

// Fitting constants.
const (
	// minTrainScore gates which training matches contribute
	// correspondences: confident genuine matches only.
	minTrainScore = 8
	// maxControlPoints caps the TPS size; the solve is O(n³).
	maxControlPoints = 120
	// tpsLambda is the TPS smoothing regularizer; the correspondences
	// are noisy.
	tpsLambda = 0.5
)

// FitCalibration learns the average relative deformation between two
// devices from genuine template pairs. For each pair it matches the
// templates, rigid-aligns the probe onto the gallery, and treats the
// residual displacement of each matched minutia as a sample of the
// inter-sensor warp; a regularized TPS is fitted to a subsample of those
// correspondences (Ross & Nadgir's calibration model, fitted
// automatically instead of from manually selected control points).
func FitCalibration(m match.Matcher, pairs []TemplatePair) (*Calibration, error) {
	if m == nil {
		return nil, fmt.Errorf("calib: nil matcher")
	}
	var src, dst []geom.Point
	used := 0
	for _, pair := range pairs {
		if pair.Gallery == nil || pair.Probe == nil {
			continue
		}
		res, err := m.Match(pair.Gallery, pair.Probe)
		if err != nil {
			return nil, fmt.Errorf("calib: training match: %w", err)
		}
		if res.Score < minTrainScore || res.Matched < 4 {
			continue
		}
		used++
		for _, idx := range res.Pairs {
			g := pair.Gallery.Minutiae[idx[0]]
			q := pair.Probe.Minutiae[idx[1]]
			aligned := res.Transform.Apply(geom.Point{X: q.X, Y: q.Y})
			src = append(src, aligned)
			dst = append(dst, geom.Point{X: g.X, Y: g.Y})
		}
	}
	if len(src) < 8 {
		return nil, fmt.Errorf("calib: only %d correspondences from %d pairs; need >= 8", len(src), len(pairs))
	}
	// Deterministic subsample: evenly strided.
	if len(src) > maxControlPoints {
		stride := float64(len(src)) / float64(maxControlPoints)
		var ss, ds []geom.Point
		for i := 0; i < maxControlPoints; i++ {
			idx := int(float64(i) * stride)
			ss = append(ss, src[idx])
			ds = append(ds, dst[idx])
		}
		src, dst = ss, ds
	}
	warp, err := geom.FitTPS(src, dst, tpsLambda)
	if err != nil {
		return nil, fmt.Errorf("calib: TPS fit: %w", err)
	}
	return &Calibration{warp: warp, TrainingPairs: used, ControlPoints: len(src)}, nil
}

// correct maps every probe minutia through tr (the first match's
// probe→gallery alignment) and then the learned warp, giving a template
// in the gallery's frame. Minutiae that land outside the gallery window
// stay: dropping them shrinks the corrected probe and with it the overlap
// denominator of the second match's score, which raises impostor scores
// more than genuine ones (EXPERIMENTS.md, "Calibration at equal FMR").
func (c *Calibration) correct(gallery, probe *minutiae.Template, tr geom.Rigid) *minutiae.Template {
	out := &minutiae.Template{
		Width: gallery.Width, Height: gallery.Height, DPI: gallery.DPI,
		Minutiae: make([]minutiae.Minutia, 0, len(probe.Minutiae)),
	}
	for _, q := range probe.Minutiae {
		fixed := c.warp.Apply(tr.Apply(geom.Point{X: q.X, Y: q.Y}))
		out.Minutiae = append(out.Minutiae, minutiae.Minutia{
			X: fixed.X, Y: fixed.Y,
			Angle:   minutiae.NormalizeAngle(q.Angle + tr.Theta),
			Kind:    q.Kind,
			Quality: q.Quality,
		})
	}
	return out
}

// CalibratedMatcher wraps a base matcher with an inter-sensor calibration:
// it matches once to find the rigid alignment, applies the learned
// deformation correction to the aligned probe, re-matches, and keeps the
// better score. Keeping the better score raises impostor scores too, so
// it is judged against the base matcher at equal FMR, never at one fixed
// threshold.
type CalibratedMatcher struct {
	// Base is the underlying matcher (required). The corrected probe
	// it is handed second may hold minutiae outside its Width×Height,
	// which minutiae.Template.Validate rejects, so Base must not
	// validate its inputs. HoughMatcher and GreedyMatcher do not.
	Base match.Matcher
	// Cal is the learned deformation for this (gallery device, probe
	// device) pair (required).
	Cal *Calibration
}

var _ match.Matcher = (*CalibratedMatcher)(nil)

// Match implements match.Matcher.
func (cm *CalibratedMatcher) Match(gallery, probe *minutiae.Template) (match.Result, error) {
	if cm.Base == nil || cm.Cal == nil {
		return match.Result{}, fmt.Errorf("calib: CalibratedMatcher missing base or calibration")
	}
	base, err := cm.Base.Match(gallery, probe)
	if err != nil {
		return match.Result{}, err
	}
	if base.Matched < 3 {
		return base, nil
	}
	second, err := cm.Base.Match(gallery, cm.Cal.correct(gallery, probe, base.Transform))
	if err != nil {
		return match.Result{}, err
	}
	if second.Score > base.Score {
		return second, nil
	}
	return base, nil
}
