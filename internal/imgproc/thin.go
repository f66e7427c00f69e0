package imgproc

// Thin skeletonizes a binary image with the Zhang–Suen algorithm, reducing
// ridges to 1-pixel-wide skeletons while preserving connectivity — the
// representation minutiae extraction runs on.
func Thin(b *Binary) *Binary {
	img := b.Clone()
	// Neighbour order P2..P9 clockwise from north, per the original paper.
	offs := [8][2]int{
		{0, -1}, {1, -1}, {1, 0}, {1, 1},
		{0, 1}, {-1, 1}, {-1, 0}, {-1, -1},
	}
	subPass := func(sub int) int {
		var toClear []int
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				if !img.Pix[y*img.W+x] {
					continue
				}
				var p [8]bool
				n := 0
				for i, o := range offs {
					p[i] = img.At(x+o[0], y+o[1])
					if p[i] {
						n++
					}
				}
				if n < 2 || n > 6 {
					continue
				}
				// Transitions false→true around the ring.
				a := 0
				for i := 0; i < 8; i++ {
					if !p[i] && p[(i+1)%8] {
						a++
					}
				}
				if a != 1 {
					continue
				}
				// Sub-iteration conditions: P2·P4·P6 = 0 and P4·P6·P8 = 0
				// for the first pass, mirrored for the second.
				if sub == 0 {
					if (p[0] && p[2] && p[4]) || (p[2] && p[4] && p[6]) {
						continue
					}
				} else {
					if (p[0] && p[2] && p[6]) || (p[0] && p[4] && p[6]) {
						continue
					}
				}
				toClear = append(toClear, y*img.W+x)
			}
		}
		for _, idx := range toClear {
			img.Pix[idx] = false
		}
		return len(toClear)
	}
	for {
		if subPass(0)+subPass(1) == 0 {
			break
		}
	}
	return img
}

// CrossingNumber returns the Rutovitz crossing number at (x, y): half the
// number of 0↔1 transitions around the 8-neighbour ring. On a skeleton,
// CN=1 marks a ridge ending, CN=2 a ridge continuation, CN≥3 a bifurcation.
func CrossingNumber(b *Binary, x, y int) int {
	offs := [8][2]int{
		{0, -1}, {1, -1}, {1, 0}, {1, 1},
		{0, 1}, {-1, 1}, {-1, 0}, {-1, -1},
	}
	trans := 0
	for i := 0; i < 8; i++ {
		cur := b.At(x+offs[i][0], y+offs[i][1])
		next := b.At(x+offs[(i+1)%8][0], y+offs[(i+1)%8][1])
		if cur != next {
			trans++
		}
	}
	return trans / 2
}
