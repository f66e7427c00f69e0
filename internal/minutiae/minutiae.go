// Package minutiae defines the minutiae template representation shared by
// the whole pipeline and an ISO/IEC 19794-2-style binary template codec.
//
// Template coordinates are in pixels at the template's resolution (DPI),
// origin at the top-left of the capture window, x growing right and y
// growing down. Angles are in radians in [0, 2π), measured
// counter-clockwise from the positive x axis, and denote the direction the
// ridge *leaves* the minutia (ISO convention).
package minutiae

import (
	"fmt"
	"math"
)

// Type classifies a minutia.
type Type uint8

const (
	// Ending is a ridge termination (crossing number 1).
	Ending Type = iota + 1
	// Bifurcation is a ridge split (crossing number 3).
	Bifurcation
)

// String returns a human-readable type name.
func (t Type) String() string {
	switch t {
	case Ending:
		return "ending"
	case Bifurcation:
		return "bifurcation"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Minutia is a single fingerprint feature point.
type Minutia struct {
	// X, Y are pixel coordinates at the template resolution.
	X, Y float64
	// Angle is the ridge direction in radians, [0, 2π).
	Angle float64
	// Kind is ending or bifurcation.
	Kind Type
	// Quality is a per-minutia confidence in [0, 100]; 0 means unreported.
	Quality uint8
}

// Dist returns the Euclidean distance to another minutia.
func (m Minutia) Dist(o Minutia) float64 {
	return math.Hypot(m.X-o.X, m.Y-o.Y)
}

// Template is a set of minutiae extracted from (or synthesized for) one
// fingerprint impression.
type Template struct {
	// Width, Height are the capture window dimensions in pixels.
	Width, Height int
	// DPI is the spatial resolution the coordinates are expressed at.
	DPI int
	// Minutiae is the feature set.
	Minutiae []Minutia
}

// Clone returns a deep copy of the template.
func (t *Template) Clone() *Template {
	out := &Template{Width: t.Width, Height: t.Height, DPI: t.DPI}
	out.Minutiae = append([]Minutia(nil), t.Minutiae...)
	return out
}

// Count returns the number of minutiae.
func (t *Template) Count() int { return len(t.Minutiae) }

// Validate checks structural invariants: positive dimensions, in-bounds
// coordinates, normalized angles, and known types.
func (t *Template) Validate() error {
	if t.Width <= 0 || t.Height <= 0 {
		return fmt.Errorf("minutiae: invalid dimensions %dx%d", t.Width, t.Height)
	}
	if t.DPI <= 0 {
		return fmt.Errorf("minutiae: invalid DPI %d", t.DPI)
	}
	for i, m := range t.Minutiae {
		if m.X < 0 || m.X >= float64(t.Width) || m.Y < 0 || m.Y >= float64(t.Height) {
			return fmt.Errorf("minutiae: minutia %d out of bounds (%.1f, %.1f)", i, m.X, m.Y)
		}
		if m.Angle < 0 || m.Angle >= 2*math.Pi {
			return fmt.Errorf("minutiae: minutia %d angle %.3f outside [0, 2π)", i, m.Angle)
		}
		if m.Kind != Ending && m.Kind != Bifurcation {
			return fmt.Errorf("minutiae: minutia %d has unknown type %d", i, m.Kind)
		}
	}
	return nil
}

// Centroid returns the mean minutia position, or the window centre when the
// template is empty.
func (t *Template) Centroid() (x, y float64) {
	if len(t.Minutiae) == 0 {
		return float64(t.Width) / 2, float64(t.Height) / 2
	}
	for _, m := range t.Minutiae {
		x += m.X
		y += m.Y
	}
	n := float64(len(t.Minutiae))
	return x / n, y / n
}

// NormalizeAngle wraps an angle into [0, 2π). math.Mod is called only
// outside (−2π, 4π), where almost no angle falls: on (−2π, 2π) Mod
// returns its argument unchanged, and on [2π, 4π) it returns a − 2π,
// which the subtraction computes exactly (Sterbenz). The triplet
// index's m.Angle − dir lands on [2π, 4π) about one time in eight.
func NormalizeAngle(a float64) float64 {
	switch {
	case a > -2*math.Pi && a < 2*math.Pi:
	case a >= 2*math.Pi && a < 4*math.Pi:
		a -= 2 * math.Pi
	default:
		a = math.Mod(a, 2*math.Pi)
	}
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}
