// Package geom provides the 2-D geometry used throughout the fingerprint
// pipeline: points, rigid transforms, angle normalization, and thin-plate
// splines for smooth non-rigid warps.
//
// Coordinates are in millimetres at the physical layer and in pixels at the
// template layer; geom is unit-agnostic.
package geom

import "math"

// Point is a 2-D point or vector.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the inner product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Rotate returns p rotated by theta radians about the origin.
func (p Point) Rotate(theta float64) Point {
	c, s := math.Cos(theta), math.Sin(theta)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

// NormalizeAngle wraps theta into (−π, π].
func NormalizeAngle(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}

// Rigid is a rigid-body transform: rotation by Theta about the origin,
// then translation by T, with optional isotropic scale S (S=1 is a true
// rigid motion; the capture models use small scale factors for dpi error).
type Rigid struct {
	Theta float64
	T     Point
	S     float64
}

// Apply maps p through r.
func (r Rigid) Apply(p Point) Point {
	s := r.S
	if s == 0 {
		s = 1
	}
	return p.Rotate(r.Theta).Scale(s).Add(r.T)
}

// Invert returns the inverse transform.
func (r Rigid) Invert() Rigid {
	s := r.S
	if s == 0 {
		s = 1
	}
	inv := Rigid{Theta: -r.Theta, S: 1 / s}
	inv.T = r.T.Scale(-1 / s).Rotate(-r.Theta)
	return inv
}

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside (or on the border of) r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// CenteredRect returns a rectangle of the given width and height centred
// on c.
func CenteredRect(c Point, width, height float64) Rect {
	return Rect{
		MinX: c.X - width/2, MaxX: c.X + width/2,
		MinY: c.Y - height/2, MaxY: c.Y + height/2,
	}
}
