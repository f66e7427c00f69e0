package imgproc

import (
	"math"
)

// OrientationField holds block-wise ridge orientation estimates.
// Theta[by][bx] is the ridge orientation in [0, π) for the block at block
// coordinates (bx, by); Coherence in [0,1] measures how strongly the local
// gradients agree (1 = perfectly parallel ridges). BlockSize is in pixels.
type OrientationField struct {
	BlockSize int
	BW, BH    int
	Theta     [][]float64
	Coherence [][]float64
}

// EstimateOrientation computes the block-wise ridge orientation field with
// the gradient-based least-squares method (Rao's algorithm): within each
// block the dominant orientation is perpendicular to the principal gradient
// direction, recovered from the doubled-angle gradient moments.
func EstimateOrientation(im *Image, blockSize int) *OrientationField {
	if blockSize < 2 {
		blockSize = 2
	}
	gx, gy := Sobel(im)
	bw := (im.W + blockSize - 1) / blockSize
	bh := (im.H + blockSize - 1) / blockSize
	of := &OrientationField{BlockSize: blockSize, BW: bw, BH: bh}
	of.Theta = make([][]float64, bh)
	of.Coherence = make([][]float64, bh)
	for by := 0; by < bh; by++ {
		of.Theta[by] = make([]float64, bw)
		of.Coherence[by] = make([]float64, bw)
		for bx := 0; bx < bw; bx++ {
			var gxx, gyy, gxy float64
			x0, y0 := bx*blockSize, by*blockSize
			for y := y0; y < y0+blockSize && y < im.H; y++ {
				for x := x0; x < x0+blockSize && x < im.W; x++ {
					dx := gx.Pix[y*im.W+x]
					dy := gy.Pix[y*im.W+x]
					gxx += dx * dx
					gyy += dy * dy
					gxy += dx * dy
				}
			}
			// Doubled-angle average; gradient direction is perpendicular to
			// the ridge orientation.
			theta := 0.5 * math.Atan2(2*gxy, gxx-gyy)
			ridge := theta + math.Pi/2
			for ridge >= math.Pi {
				ridge -= math.Pi
			}
			for ridge < 0 {
				ridge += math.Pi
			}
			of.Theta[by][bx] = ridge
			denom := gxx + gyy
			if denom > 1e-12 {
				num := math.Hypot(gxx-gyy, 2*gxy)
				of.Coherence[by][bx] = num / denom
			}
		}
	}
	return of
}

// Smooth regularizes the orientation field by vector-averaging the doubled
// angles over a (2r+1)² block neighbourhood, weighted by coherence.
func (of *OrientationField) Smooth(r int) {
	if r <= 0 {
		return
	}
	newTheta := make([][]float64, of.BH)
	for by := 0; by < of.BH; by++ {
		newTheta[by] = make([]float64, of.BW)
		for bx := 0; bx < of.BW; bx++ {
			var sx, sy float64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					nx, ny := bx+dx, by+dy
					if nx < 0 || nx >= of.BW || ny < 0 || ny >= of.BH {
						continue
					}
					w := of.Coherence[ny][nx] + 1e-3
					sx += w * math.Cos(2*of.Theta[ny][nx])
					sy += w * math.Sin(2*of.Theta[ny][nx])
				}
			}
			th := 0.5 * math.Atan2(sy, sx)
			for th < 0 {
				th += math.Pi
			}
			for th >= math.Pi {
				th -= math.Pi
			}
			newTheta[by][bx] = th
		}
	}
	of.Theta = newTheta
}

// ThetaAt returns the orientation for the pixel (x, y), clamping to the
// nearest block.
func (of *OrientationField) ThetaAt(x, y int) float64 {
	bx := x / of.BlockSize
	by := y / of.BlockSize
	if bx < 0 {
		bx = 0
	} else if bx >= of.BW {
		bx = of.BW - 1
	}
	if by < 0 {
		by = 0
	} else if by >= of.BH {
		by = of.BH - 1
	}
	return of.Theta[by][bx]
}

// CoherenceAt returns the coherence for the pixel (x, y).
func (of *OrientationField) CoherenceAt(x, y int) float64 {
	bx := x / of.BlockSize
	by := y / of.BlockSize
	if bx < 0 {
		bx = 0
	} else if bx >= of.BW {
		bx = of.BW - 1
	}
	if by < 0 {
		by = 0
	} else if by >= of.BH {
		by = of.BH - 1
	}
	return of.Coherence[by][bx]
}

// EstimateFrequency estimates the dominant ridge frequency (cycles/pixel)
// in the block containing (x0, y0) by projecting pixel intensities onto the
// axis perpendicular to the local orientation and counting signature peaks
// (the Hong–Wan–Jain x-signature method).
func EstimateFrequency(im *Image, of *OrientationField, x0, y0, window int) float64 {
	theta := of.ThetaAt(x0, y0)
	// Direction across the ridges.
	c, s := math.Cos(theta+math.Pi/2), math.Sin(theta+math.Pi/2)
	n := window
	sig := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i - n/2)
		// Average a short segment along the ridge direction for robustness.
		sum := 0.0
		const along = 5
		for j := -along; j <= along; j++ {
			u := float64(j)
			x := float64(x0) + t*c - u*s
			y := float64(y0) + t*s + u*c
			sum += im.Bilinear(x, y)
		}
		sig[i] = sum / (2*along + 1)
	}
	// Count mean crossings; each ridge period has two.
	mean := 0.0
	for _, v := range sig {
		mean += v
	}
	mean /= float64(n)
	crossings := 0
	for i := 1; i < n; i++ {
		if (sig[i-1] < mean) != (sig[i] < mean) {
			crossings++
		}
	}
	if crossings < 2 {
		return 0
	}
	periods := float64(crossings) / 2
	return periods / float64(n)
}
