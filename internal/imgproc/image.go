// Package imgproc implements the grayscale image processing substrate the
// fingerprint pipeline is built on: convolution, gradients, normalization,
// Otsu binarization, Zhang–Suen thinning, Gabor enhancement, and block-wise
// ridge orientation/frequency estimation. Everything operates on float64
// images in [0,1] (0 = black ridge, 1 = white background) to avoid repeated
// quantization.
package imgproc

import "math"

// Image is a dense grayscale image with float64 pixels, row-major.
// Pixel values are nominally in [0, 1] but intermediates may exceed the
// range; Clamp restores it.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage returns a zero (black) image of the given size.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// NewImageFilled returns an image with every pixel set to v.
func NewImageFilled(w, h int, v float64) *Image {
	img := NewImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = v
	}
	return img
}

// At returns the pixel at (x, y). Out-of-bounds coordinates are clamped to
// the border (replicate padding), which is the boundary condition every
// filter in this package wants.
func (im *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set assigns the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Clamp limits all pixels to [0, 1] in place and returns the image.
func (im *Image) Clamp() *Image {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
	return im
}

// Fill sets every pixel to v.
func (im *Image) Fill(v float64) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// MeanStd returns the mean and standard deviation of all pixels.
func (im *Image) MeanStd() (mean, std float64) {
	if len(im.Pix) == 0 {
		return 0, 0
	}
	for _, v := range im.Pix {
		mean += v
	}
	mean /= float64(len(im.Pix))
	for _, v := range im.Pix {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(im.Pix)))
	return mean, std
}

// Normalize rescales the image in place to the target mean and standard
// deviation (the classic Hong–Wan–Jain pre-enhancement normalization) and
// returns it. A flat image is set to the target mean.
func (im *Image) Normalize(targetMean, targetStd float64) *Image {
	mean, std := im.MeanStd()
	if std < 1e-9 {
		im.Fill(targetMean)
		return im
	}
	for i, v := range im.Pix {
		im.Pix[i] = targetMean + (v-mean)*targetStd/std
	}
	return im
}

// Histogram returns an n-bin histogram of pixel values assumed in [0, 1].
func (im *Image) Histogram(n int) []int {
	h := make([]int, n)
	for _, v := range im.Pix {
		b := int(v * float64(n))
		if b < 0 {
			b = 0
		} else if b >= n {
			b = n - 1
		}
		h[b]++
	}
	return h
}

// SubImage copies the rectangle [x0,x0+w)×[y0,y0+h) into a new image,
// replicating border pixels where the rectangle exceeds the source.
func (im *Image) SubImage(x0, y0, w, h int) *Image {
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = im.At(x0+x, y0+y)
		}
	}
	return out
}

// Bilinear samples the image at a fractional coordinate with bilinear
// interpolation and replicate padding.
func (im *Image) Bilinear(x, y float64) float64 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	v00 := im.At(x0, y0)
	v10 := im.At(x0+1, y0)
	v01 := im.At(x0, y0+1)
	v11 := im.At(x0+1, y0+1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// Binary is a 1-bit image; true marks foreground (ridge) pixels.
type Binary struct {
	W, H int
	Pix  []bool
}

// NewBinary returns an all-false binary image.
func NewBinary(w, h int) *Binary {
	return &Binary{W: w, H: h, Pix: make([]bool, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads are false.
func (b *Binary) At(x, y int) bool {
	if x < 0 || x >= b.W || y < 0 || y >= b.H {
		return false
	}
	return b.Pix[y*b.W+x]
}

// Clone returns a deep copy.
func (b *Binary) Clone() *Binary {
	out := NewBinary(b.W, b.H)
	copy(out.Pix, b.Pix)
	return out
}
