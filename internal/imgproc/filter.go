package imgproc

import "math"

// Sobel computes horizontal and vertical gradients with the 3×3 Sobel
// operator.
func Sobel(im *Image) (gx, gy *Image) {
	gx = NewImage(im.W, im.H)
	gy = NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			p00, p10, p20 := im.At(x-1, y-1), im.At(x, y-1), im.At(x+1, y-1)
			p01, p21 := im.At(x-1, y), im.At(x+1, y)
			p02, p12, p22 := im.At(x-1, y+1), im.At(x, y+1), im.At(x+1, y+1)
			gx.Pix[y*im.W+x] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
			gy.Pix[y*im.W+x] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
		}
	}
	return gx, gy
}

// OtsuThreshold returns the threshold in [0,1] that maximizes inter-class
// variance of the pixel histogram — the standard global binarization
// threshold.
func OtsuThreshold(im *Image) float64 {
	const bins = 256
	hist := im.Histogram(bins)
	total := len(im.Pix)
	if total == 0 {
		return 0.5
	}
	sum := 0.0
	for i, c := range hist {
		sum += float64(i) * float64(c)
	}
	var sumB, wB float64
	bestVar, bestT := -1.0, 127
	for t := 0; t < bins; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sum - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar, bestT = v, t
		}
	}
	return (float64(bestT) + 0.5) / bins
}

// Binarize thresholds the image: pixels darker than t become foreground
// (ridges are dark in fingerprint convention).
func Binarize(im *Image, t float64) *Binary {
	out := NewBinary(im.W, im.H)
	for i, v := range im.Pix {
		out.Pix[i] = v < t
	}
	return out
}

// GaborKernel builds a 2-D Gabor filter tuned to ridge orientation theta
// (radians, direction of the ridge flow) and ridge frequency freq
// (cycles/pixel). sigmaX and sigmaY control the envelope along and across
// the ridge direction.
func GaborKernel(theta, freq, sigmaX, sigmaY float64) [][]float64 {
	r := int(math.Ceil(3 * math.Max(sigmaX, sigmaY)))
	if r < 1 {
		r = 1
	}
	n := 2*r + 1
	k := make([][]float64, n)
	c, s := math.Cos(theta), math.Sin(theta)
	sum := 0.0
	for dy := -r; dy <= r; dy++ {
		row := make([]float64, n)
		for dx := -r; dx <= r; dx++ {
			// Rotate into the ridge frame: u along ridge, v across.
			u := c*float64(dx) + s*float64(dy)
			v := -s*float64(dx) + c*float64(dy)
			env := math.Exp(-(u*u/(2*sigmaX*sigmaX) + v*v/(2*sigmaY*sigmaY)))
			row[dx+r] = env * math.Cos(2*math.Pi*freq*v)
			sum += row[dx+r]
		}
		k[dy+r] = row
	}
	// Zero the DC component so flat regions map to zero response.
	mean := sum / float64(n*n)
	for _, row := range k {
		for i := range row {
			row[i] -= mean
		}
	}
	return k
}

// ApplyKernelAt evaluates a dense 2-D kernel centred at (x, y). The kernel
// must be square with odd side length (as produced by GaborKernel).
func ApplyKernelAt(im *Image, k [][]float64, x, y int) float64 {
	r := len(k) / 2
	sum := 0.0
	for dy := -r; dy <= r; dy++ {
		row := k[dy+r]
		for dx := -r; dx <= r; dx++ {
			sum += row[dx+r] * im.At(x+dx, y+dy)
		}
	}
	return sum
}
