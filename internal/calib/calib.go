// Package calib implements the interoperability mitigations the paper's
// related-work and further-work sections point at:
//
//   - Ross–Nadgir inter-sensor calibration: learn the average non-rigid
//     (thin-plate spline) deformation between a device pair from matched
//     minutiae correspondences, then undo it at verification time.
//   - Poh-style quality-conditioned score normalization: z-normalize
//     similarity scores against the impostor statistics of the observed
//     (gallery quality, probe quality) pair, so one global threshold
//     behaves consistently across quality conditions.
//   - Multi-sample fusion: combine scores from several samples of the
//     same finger (sum/max rule) to recover FNMR.
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

// CalibrationOptions tunes fitting.
type CalibrationOptions struct {
	// MinScore gates which training matches contribute correspondences
	// (default 8 — confident genuine matches only).
	MinScore float64
	// MaxControlPoints caps the TPS size (default 120; the solve is
	// O(n³)).
	MaxControlPoints int
	// Lambda is the TPS smoothing regularizer (default 0.5; the
	// correspondences are noisy).
	Lambda float64
}

func (o CalibrationOptions) withDefaults() CalibrationOptions {
	if o.MinScore == 0 {
		o.MinScore = 8
	}
	if o.MaxControlPoints == 0 {
		o.MaxControlPoints = 120
	}
	if o.Lambda == 0 {
		o.Lambda = 0.5
	}
	return o
}

// FitCalibration learns the average relative deformation between two
// devices from genuine template pairs. For each pair it matches the
// templates, rigid-aligns the probe onto the gallery, and treats the
// residual displacement of each matched minutia as a sample of the
// inter-sensor warp; a regularized TPS is fitted to a subsample of those
// correspondences (Ross & Nadgir's calibration model, fitted
// automatically instead of from manually selected control points).
func FitCalibration(m match.Matcher, pairs []TemplatePair, opts CalibrationOptions) (*Calibration, error) {
	opts = opts.withDefaults()
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
		if res.Score < opts.MinScore || res.Matched < 4 {
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
	if len(src) > opts.MaxControlPoints {
		stride := float64(len(src)) / float64(opts.MaxControlPoints)
		var ss, ds []geom.Point
		for i := 0; i < opts.MaxControlPoints; i++ {
			idx := int(float64(i) * stride)
			ss = append(ss, src[idx])
			ds = append(ds, dst[idx])
		}
		src, dst = ss, ds
	}
	warp, err := geom.FitTPS(src, dst, opts.Lambda)
	if err != nil {
		return nil, fmt.Errorf("calib: TPS fit: %w", err)
	}
	return &Calibration{warp: warp, TrainingPairs: used, ControlPoints: len(src)}, nil
}

// CalibratedMatcher wraps a base matcher with an inter-sensor calibration:
// it matches once to find the rigid alignment, applies the learned
// deformation correction to the aligned probe, re-matches, and keeps the
// better score.
type CalibratedMatcher struct {
	// Base is the underlying matcher (required).
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
	// Build the corrected probe: rigid-align into the gallery frame, then
	// undo the learned inter-sensor deformation.
	corrected := &minutiae.Template{Width: gallery.Width, Height: gallery.Height, DPI: gallery.DPI}
	for _, q := range probe.Minutiae {
		aligned := base.Transform.Apply(geom.Point{X: q.X, Y: q.Y})
		fixed := cm.Cal.warp.Apply(aligned)
		if fixed.X < 0 || fixed.X >= float64(gallery.Width) ||
			fixed.Y < 0 || fixed.Y >= float64(gallery.Height) {
			continue
		}
		corrected.Minutiae = append(corrected.Minutiae, minutiae.Minutia{
			X: fixed.X, Y: fixed.Y,
			Angle:   minutiae.NormalizeAngle(q.Angle + base.Transform.Theta),
			Kind:    q.Kind,
			Quality: q.Quality,
		})
	}
	second, err := cm.Base.Match(gallery, corrected)
	if err != nil {
		return match.Result{}, err
	}
	if second.Score > base.Score {
		return second, nil
	}
	return base, nil
}
