package imgproc

import (
	"testing"
)

// setPix marks (x, y) as foreground.
func setPix(b *Binary, x, y int) { b.Pix[y*b.W+x] = true }

// countPix returns the number of foreground pixels.
func countPix(b *Binary) int {
	n := 0
	for _, v := range b.Pix {
		if v {
			n++
		}
	}
	return n
}

// thickLine draws a thick horizontal bar into a fresh binary image.
func thickLine(w, h, y0, thickness int) *Binary {
	b := NewBinary(w, h)
	for y := y0; y < y0+thickness; y++ {
		for x := 2; x < w-2; x++ {
			setPix(b, x, y)
		}
	}
	return b
}

func TestThinReducesThickLineToSkeleton(t *testing.T) {
	b := thickLine(32, 16, 5, 5)
	sk := Thin(b)
	if countPix(sk) >= countPix(b) {
		t.Fatal("thinning did not reduce pixel count")
	}
	// Every column in the interior should have exactly one skeleton pixel.
	for x := 6; x < 26; x++ {
		n := 0
		for y := 0; y < 16; y++ {
			if sk.At(x, y) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("column %d has %d skeleton pixels, want 1", x, n)
		}
	}
}

func TestThinPreservesConnectivity(t *testing.T) {
	b := thickLine(32, 16, 5, 5)
	sk := Thin(b)
	// Flood fill from any skeleton pixel must reach all skeleton pixels.
	var start [2]int
	found := false
	for y := 0; y < sk.H && !found; y++ {
		for x := 0; x < sk.W && !found; x++ {
			if sk.At(x, y) {
				start = [2]int{x, y}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("skeleton vanished entirely")
	}
	seen := NewBinary(sk.W, sk.H)
	stack := [][2]int{start}
	setPix(seen, start[0], start[1])
	count := 1
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := p[0]+dx, p[1]+dy
				if sk.At(nx, ny) && !seen.At(nx, ny) {
					setPix(seen, nx, ny)
					count++
					stack = append(stack, [2]int{nx, ny})
				}
			}
		}
	}
	if count != countPix(sk) {
		t.Fatalf("skeleton disconnected: reached %d of %d", count, countPix(sk))
	}
}

func TestThinIdempotent(t *testing.T) {
	b := thickLine(32, 16, 5, 5)
	once := Thin(b)
	twice := Thin(once)
	for i := range once.Pix {
		if once.Pix[i] != twice.Pix[i] {
			t.Fatal("thinning not idempotent")
		}
	}
}

func TestThinEmptyImage(t *testing.T) {
	b := NewBinary(8, 8)
	sk := Thin(b)
	if countPix(sk) != 0 {
		t.Fatal("empty image grew pixels")
	}
}

func TestThinDoesNotMutateInput(t *testing.T) {
	b := thickLine(16, 16, 5, 4)
	before := countPix(b)
	Thin(b)
	if countPix(b) != before {
		t.Fatal("Thin mutated its input")
	}
}

func TestCrossingNumberLineEnd(t *testing.T) {
	b := NewBinary(8, 8)
	// Horizontal line from (2,4)..(5,4).
	for x := 2; x <= 5; x++ {
		setPix(b, x, 4)
	}
	if cn := CrossingNumber(b, 2, 4); cn != 1 {
		t.Fatalf("line end CN = %d, want 1", cn)
	}
	if cn := CrossingNumber(b, 3, 4); cn != 2 {
		t.Fatalf("line interior CN = %d, want 2", cn)
	}
}

func TestCrossingNumberBifurcation(t *testing.T) {
	b := NewBinary(9, 9)
	// A 'Y': vertical stem up to (4,4), two diagonal branches.
	for y := 4; y <= 7; y++ {
		setPix(b, 4, y)
	}
	setPix(b, 3, 3)
	setPix(b, 2, 2)
	setPix(b, 5, 3)
	setPix(b, 6, 2)
	if cn := CrossingNumber(b, 4, 4); cn != 3 {
		t.Fatalf("bifurcation CN = %d, want 3", cn)
	}
}

func TestCrossingNumberIsolatedPixel(t *testing.T) {
	b := NewBinary(5, 5)
	setPix(b, 2, 2)
	if cn := CrossingNumber(b, 2, 2); cn != 0 {
		t.Fatalf("isolated CN = %d, want 0", cn)
	}
}

// TestCrossingNumberPatterns checks the 3×3 neighbourhoods the tests
// above do not: a four-way crossing, diagonal runs, and pixels on the
// image border, where out-of-range neighbours read as background.
func TestCrossingNumberPatterns(t *testing.T) {
	cases := []struct {
		name string
		pix  [][2]int // foreground pixels of a 5×5 image
		x, y int
		want int
	}{
		{"crossing", [][2]int{{2, 1}, {2, 2}, {2, 3}, {1, 2}, {3, 2}}, 2, 2, 4},
		{"diagonal interior", [][2]int{{1, 1}, {2, 2}, {3, 3}}, 2, 2, 2},
		{"diagonal ending", [][2]int{{1, 1}, {2, 2}}, 2, 2, 1},
		{"adjacent neighbours are one run", [][2]int{{1, 2}, {1, 1}, {2, 2}}, 2, 2, 1},
		{"corner ending", [][2]int{{0, 0}, {1, 0}}, 0, 0, 1},
		{"edge interior", [][2]int{{0, 2}, {0, 1}, {0, 3}}, 0, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBinary(5, 5)
			for _, p := range c.pix {
				setPix(b, p[0], p[1])
			}
			if got := CrossingNumber(b, c.x, c.y); got != c.want {
				t.Fatalf("CN(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
			}
		})
	}
}
