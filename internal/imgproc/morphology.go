package imgproc

import "sort"

// Median3 applies a 3×3 median filter — the standard despeckling step for
// scanned ink imagery (salt-and-pepper noise from paper grain and dust).
func Median3(im *Image) *Image {
	out := NewImage(im.W, im.H)
	var window [9]float64
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			k := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					window[k] = im.At(x+dx, y+dy)
					k++
				}
			}
			w := window
			sort.Float64s(w[:])
			out.Pix[y*im.W+x] = w[4]
		}
	}
	return out
}
