// Package ridge synthesizes master fingerprints: the ground-truth ridge
// structure of a finger independent of any capture device. A Master carries
// a pattern class (arch/loop/whorl), a singular-point-based orientation
// field (Sherlock–Monro model), a ridge frequency field, and a ground-truth
// minutiae set. Sensor models in internal/sensor derive impressions from a
// Master.
//
// Master coordinates are physical millimetres, origin at the finger pad
// centre, x to the right and y up (mathematical convention); the sensor
// layer converts to pixel coordinates.
package ridge

import (
	"fmt"
	"math"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/rng"
)

// Class is the Henry-system pattern class of a fingerprint.
type Class int

const (
	// Arch: ridges flow side to side with a central bump; no singular points.
	Arch Class = iota + 1
	// TentedArch: arch with a central up-thrust (one core over one delta).
	TentedArch
	// LeftLoop: ridges enter and leave on the left around one core.
	LeftLoop
	// RightLoop: ridges enter and leave on the right around one core.
	RightLoop
	// Whorl: concentric pattern with two cores and two deltas.
	Whorl
)

// String returns the conventional class name.
func (c Class) String() string {
	switch c {
	case Arch:
		return "arch"
	case TentedArch:
		return "tented arch"
	case LeftLoop:
		return "left loop"
	case RightLoop:
		return "right loop"
	case Whorl:
		return "whorl"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// classFrequencies are the natural occurrence frequencies of the five
// classes in the population (approximate values from Maltoni et al.,
// Handbook of Fingerprint Recognition).
var classFrequencies = []float64{
	0.037, // Arch
	0.029, // TentedArch
	0.338, // LeftLoop
	0.317, // RightLoop
	0.279, // Whorl
}

// GroundTruth is one true minutia of a master fingerprint.
type GroundTruth struct {
	// Pos is the position in mm, pad-centred, y-up.
	Pos geom.Point
	// Angle is the ridge direction in radians.
	Angle float64
	// Kind is ending or bifurcation.
	Kind minutiae.Type
	// Prominence in (0, 1] is the intrinsic robustness of the feature:
	// low-prominence minutiae are the first to disappear under poor
	// capture conditions.
	Prominence float64
}

// Master is a device-independent synthetic fingerprint.
type Master struct {
	// ID identifies the finger, e.g. "subject/17/finger/R-index".
	ID string
	// Class is the pattern class.
	Class Class
	// Pad is the bounding box of the finger pad in mm.
	Pad geom.Rect
	// Cores and Deltas are the singular points of the orientation field.
	Cores, Deltas []geom.Point
	// PeriodMM is the base inter-ridge distance in mm (typically ~0.45).
	PeriodMM float64
	// Minutiae is the ground-truth feature set.
	Minutiae []GroundTruth

	// Arch model parameters (used when Class == Arch).
	archAmp, archSigmaX, archSigmaY, archY0 float64
}

// GenOptions configures master generation. The zero value uses defaults
// matched to adult index fingers at 500 dpi studies.
type GenOptions struct {
	// MeanMinutiae is the expected ground-truth minutiae count (default 62,
	// typical for a full pad).
	MeanMinutiae float64
	// PadWidth, PadHeight are the pad dimensions in mm (defaults 18 × 24).
	PadWidth, PadHeight float64
	// ForceClass, when non-zero, fixes the pattern class.
	ForceClass Class
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MeanMinutiae == 0 {
		o.MeanMinutiae = 62
	}
	if o.PadWidth == 0 {
		o.PadWidth = 18
	}
	if o.PadHeight == 0 {
		o.PadHeight = 24
	}
	return o
}

// Generate creates a random master fingerprint. All randomness is drawn
// from src, so equal sources generate identical masters.
func Generate(id string, src *rng.Source, opts GenOptions) *Master {
	opts = opts.withDefaults()
	m := &Master{
		ID:  id,
		Pad: geom.CenteredRect(geom.Point{}, opts.PadWidth, opts.PadHeight),
		// Inter-ridge period: mean 0.45 mm, tight spread, hard floor.
		PeriodMM: src.TruncNorm(0.45, 0.04, 0.32, 0.60),
	}
	// Nothing reads this draw; it stays so that every later draw, and so
	// every master, capture and score, keeps its value.
	src.Uint64()
	if opts.ForceClass != 0 {
		m.Class = opts.ForceClass
	} else {
		m.Class = Class(src.Pick(classFrequencies) + 1)
	}
	m.placeSingularities(src)
	m.generateMinutiae(src, opts.MeanMinutiae)
	return m
}

// placeSingularities positions cores and deltas according to the class,
// with natural jitter.
func (m *Master) placeSingularities(src *rng.Source) {
	j := func(sd float64) float64 { return src.NormMS(0, sd) }
	switch m.Class {
	case Arch:
		// No singular points; smooth bump model.
		m.archAmp = src.TruncNorm(0.9, 0.2, 0.4, 1.5)
		m.archSigmaX = src.TruncNorm(6, 1, 4, 9)
		m.archSigmaY = src.TruncNorm(5, 1, 3, 8)
		m.archY0 = j(1.5)
	case TentedArch:
		x := j(0.8)
		m.Cores = []geom.Point{{X: x, Y: 1.5 + j(0.8)}}
		m.Deltas = []geom.Point{{X: x + j(0.4), Y: -6.5 + j(0.8)}}
	case LeftLoop:
		m.Cores = []geom.Point{{X: -0.5 + j(0.8), Y: 2 + j(0.8)}}
		m.Deltas = []geom.Point{{X: 4.5 + j(0.8), Y: -6 + j(0.8)}}
	case RightLoop:
		m.Cores = []geom.Point{{X: 0.5 + j(0.8), Y: 2 + j(0.8)}}
		m.Deltas = []geom.Point{{X: -4.5 + j(0.8), Y: -6 + j(0.8)}}
	case Whorl:
		dx := 0.8 + math.Abs(j(0.4))
		m.Cores = []geom.Point{
			{X: -dx + j(0.3), Y: 2.8 + j(0.6)},
			{X: dx + j(0.3), Y: 1.2 + j(0.6)},
		}
		m.Deltas = []geom.Point{
			{X: -5 + j(0.8), Y: -5.5 + j(0.8)},
			{X: 5 + j(0.8), Y: -5.5 + j(0.8)},
		}
	}
}

// OrientationAt returns the ridge orientation at p in [0, π). The field
// follows the Sherlock–Monro zero-pole model: each core contributes a
// +1/2-index singularity and each delta a −1/2-index one, superimposed on a
// horizontal background flow; arches use a smooth parametric bump instead.
func (m *Master) OrientationAt(p geom.Point) float64 {
	if m.Class == Arch {
		g := math.Exp(-p.X*p.X/(2*m.archSigmaX*m.archSigmaX) -
			(p.Y-m.archY0)*(p.Y-m.archY0)/(2*m.archSigmaY*m.archSigmaY))
		slope := -m.archAmp * (p.X / m.archSigmaX) * g
		return wrapPi(math.Atan(slope))
	}
	theta := 0.0
	for _, c := range m.Cores {
		theta += 0.5 * math.Atan2(p.Y-c.Y, p.X-c.X)
	}
	for _, d := range m.Deltas {
		theta -= 0.5 * math.Atan2(p.Y-d.Y, p.X-d.X)
	}
	return wrapPi(theta)
}

// wrapPi maps an orientation into [0, π).
func wrapPi(t float64) float64 {
	t = math.Mod(t, math.Pi)
	if t < 0 {
		t += math.Pi
	}
	return t
}

// InPad reports whether p lies on the (elliptical) finger pad.
func (m *Master) InPad(p geom.Point) bool {
	rx := m.Pad.Width() / 2
	ry := m.Pad.Height() / 2
	c := m.Pad.Center()
	dx := (p.X - c.X) / rx
	dy := (p.Y - c.Y) / ry
	return dx*dx+dy*dy <= 1
}

// generateMinutiae fills the ground-truth minutiae set with dart-throwing
// placement: uniform candidates over the pad ellipse, rejected when closer
// than two ridge periods to an accepted minutia (real minutiae are
// separated by at least a ridge).
func (m *Master) generateMinutiae(src *rng.Source, mean float64) {
	target := src.Poisson(mean)
	if target < 8 {
		target = 8
	}
	minDist := 1.6 * m.PeriodMM
	rx := m.Pad.Width() / 2
	ry := m.Pad.Height() / 2
	var pts []geom.Point
	attempts := 0
	maxAttempts := target * 60
	for len(pts) < target && attempts < maxAttempts {
		attempts++
		p := geom.Point{
			X: (2*src.Float64() - 1) * rx,
			Y: (2*src.Float64() - 1) * ry,
		}
		if !m.InPad(p) {
			continue
		}
		ok := true
		for _, q := range pts {
			if p.Dist(q) < minDist {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
		}
	}
	m.Minutiae = make([]GroundTruth, 0, len(pts))
	for _, p := range pts {
		angle := m.OrientationAt(p)
		if src.Bool(0.5) {
			angle += math.Pi
		}
		kind := minutiae.Ending
		if src.Bool(0.42) { // bifurcations are slightly rarer
			kind = minutiae.Bifurcation
		}
		m.Minutiae = append(m.Minutiae, GroundTruth{
			Pos:        p,
			Angle:      minutiae.NormalizeAngle(angle),
			Kind:       kind,
			Prominence: src.Beta(4, 1.6), // skewed toward robust features
		})
	}
}
