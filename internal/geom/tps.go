package geom

import (
	"fmt"
	"math"

	"fpinterop/internal/linalg"
)

// TPS is a 2-D thin-plate spline mapping fitted from control point
// correspondences. Thin-plate splines are the standard model for the smooth
// non-rigid distortion introduced by fingerprint sensors (Ross & Nadgir,
// "A calibration model for fingerprint sensor interoperability", SPIE 2006);
// the calibration extension (internal/calib) fits one to undo it.
type TPS struct {
	src    []Point    // control points in the source frame
	wx, wy []float64  // radial basis weights for x and y
	ax, ay [3]float64 // affine part: a0 + a1·x + a2·y
}

// tpsKernel is the thin-plate radial basis U(r) = r² log r².
func tpsKernel(r2 float64) float64 {
	if r2 <= 0 {
		return 0
	}
	return r2 * math.Log(r2)
}

// FitTPS fits a thin-plate spline that maps src[i] → dst[i]. lambda ≥ 0 is
// the bending-energy regularizer: 0 interpolates exactly, larger values
// produce smoother, approximate warps (useful when correspondences are
// noisy, as in inter-sensor calibration from matched minutiae).
//
// At least 3 non-collinear control points are required.
func FitTPS(src, dst []Point, lambda float64) (*TPS, error) {
	n := len(src)
	if n != len(dst) {
		return nil, fmt.Errorf("geom: FitTPS point count mismatch %d != %d", n, len(dst))
	}
	if n < 3 {
		return nil, fmt.Errorf("geom: FitTPS needs >= 3 control points, got %d", n)
	}
	// Build the (n+3)×(n+3) system:
	//   [K+λI  P] [w]   [v]
	//   [Pᵀ    0] [a] = [0]
	size := n + 3
	m := linalg.NewMatrix(size, size)
	// Mean squared distance normalizes lambda so its effect is scale-free.
	alpha := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			alpha += src[i].Dist(src[j])
		}
	}
	if pairs := float64(n*(n-1)) / 2; pairs > 0 {
		alpha /= pairs
	}
	reg := lambda * alpha * alpha
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := src[i].Sub(src[j])
			m.Set(i, j, tpsKernel(d.Dot(d)))
		}
		m.Set(i, i, m.At(i, i)+reg)
		m.Set(i, n, 1)
		m.Set(i, n+1, src[i].X)
		m.Set(i, n+2, src[i].Y)
		m.Set(n, i, 1)
		m.Set(n+1, i, src[i].X)
		m.Set(n+2, i, src[i].Y)
	}
	bx := make([]float64, size)
	by := make([]float64, size)
	for i := 0; i < n; i++ {
		bx[i] = dst[i].X
		by[i] = dst[i].Y
	}
	solX, err := linalg.Solve(m, bx)
	if err != nil {
		return nil, fmt.Errorf("geom: TPS x solve: %w", err)
	}
	solY, err := linalg.Solve(m, by)
	if err != nil {
		return nil, fmt.Errorf("geom: TPS y solve: %w", err)
	}
	t := &TPS{
		src: append([]Point(nil), src...),
		wx:  solX[:n],
		wy:  solY[:n],
	}
	copy(t.ax[:], solX[n:])
	copy(t.ay[:], solY[n:])
	return t, nil
}

// Apply maps p through the fitted spline.
func (t *TPS) Apply(p Point) Point {
	x := t.ax[0] + t.ax[1]*p.X + t.ax[2]*p.Y
	y := t.ay[0] + t.ay[1]*p.X + t.ay[2]*p.Y
	for i, c := range t.src {
		d := p.Sub(c)
		u := tpsKernel(d.Dot(d))
		x += t.wx[i] * u
		y += t.wy[i] * u
	}
	return Point{x, y}
}
