package match

import (
	"math"

	"fpinterop/internal/minutiae"
)

// Prepared is a gallery-side template preprocessed for the Hough
// matcher hot path: the minutiae reduced to their geometry (24-byte
// points feed the voting loop sequentially instead of striding over the
// Minutia struct), the bounding box that sizes the translation
// accumulator window, the capture window, and a spatial bucket grid (CSR
// layout) that replaces the O(n·m) pairing scan with a 2×2 neighbourhood
// probe. A comparison reads nothing else.
//
// It is also a lossless copy of the template: the points hold every
// coordinate and angle bit for bit, and the slab's tail the kinds and
// qualities, so Template rebuilds exactly what was prepared. A gallery
// keeps the preparation as an enrollment's one stored form.
//
// A Prepared is immutable after Prepare returns and safe for concurrent
// use by any number of Sessions. Galleries build one per enrollment so
// repeated probes against the same template skip the rebuild.
type Prepared struct {
	// pts is the geometry of the template's minutiae, in template order.
	pts []point

	// Minutiae bounding box (undefined when the template is empty), and
	// the template's capture window and resolution.
	minX, maxX, minY, maxY float64
	width, height, dpi     int

	// One slab: the spatial bucket grid over the minutiae in CSR layout,
	// then each minutia's kind<<8 | quality. grid[:cols*rows+1] are the
	// cell offsets and the n entries after them the minutia indices, so
	// the minutiae of cell c (row-major cells, ascending index within a
	// cell) are items[grid[c]:grid[c+1]]; the last n entries are the
	// attributes (see attrs). Cells are wider than 2·distTol on each
	// axis, so every minutia within distTol of a point lies in the 2×2
	// block of cells whose shared corner is nearest the point. cols == 0
	// marks a gridless preparation (see layout), whose slab holds the
	// attributes alone.
	grid               []uint16
	cols, rows         int32
	invCellX, invCellY float64
}

// point is the geometry of one minutia — all the matcher reads of it.
type point struct{ x, y, angle float64 }

// gridDim is the cell budget per axis for n minutiae: about four cells
// per minutia and never more than 15×15 — finer cells stop paying once
// most are empty, and the cap keeps a preparation smaller than the
// template it indexes however spread out the minutiae are (coarser
// cells, never more of them).
func gridDim(n int) float64 {
	return math.Floor(math.Sqrt(float64(min(4*n, 15*15))))
}

// Prepare preprocesses a gallery-side template for repeated matching.
// The preparation copies what it keeps and holds no reference to tpl.
func (*HoughMatcher) Prepare(tpl *minutiae.Template) *Prepared {
	if tpl == nil {
		return nil
	}
	g := &Prepared{}
	g.build(tpl)
	return g
}

// Template returns a new template equal to the one prepared: the same
// window, resolution and minutiae, coordinates and angles bit for bit.
func (g *Prepared) Template() *minutiae.Template {
	t := &minutiae.Template{}
	g.TemplateInto(t)
	return t
}

// TemplateInto makes dst equal to the template prepared, reusing its
// minutiae slice's capacity — the allocation-free Template for callers
// that rebuild many templates into one scratch.
func (g *Prepared) TemplateInto(dst *minutiae.Template) {
	dst.Width, dst.Height, dst.DPI = g.width, g.height, g.dpi
	dst.Minutiae = grow(dst.Minutiae, len(g.pts))
	attrs := g.attrs()
	for i, pt := range g.pts {
		dst.Minutiae[i] = minutiae.Minutia{
			X: pt.x, Y: pt.y, Angle: pt.angle,
			Kind: minutiae.Type(attrs[i] >> 8), Quality: uint8(attrs[i]),
		}
	}
}

// attrs returns each minutia's kind<<8 | quality: the slab's last n
// entries.
func (g *Prepared) attrs() []uint16 {
	return g.grid[len(g.grid)-len(g.pts):]
}

// validAngle reports whether a is a direction the voting loop's single
// wrap normalizes into [0, 2π) — what Template.Validate demands, and
// false for NaN and ±Inf.
func validAngle(a float64) bool {
	return a >= 0 && a < 2*math.Pi
}

// build (re)fills g from tpl, reusing g's slabs — Sessions call it on
// their scratch Prepared to keep the unprepared path allocation-free.
func (g *Prepared) build(tpl *minutiae.Template) {
	ms := tpl.Minutiae
	g.pts = grow(g.pts, len(ms))
	for i, m := range ms {
		g.pts[i] = point{m.X, m.Y, m.Angle}
	}
	g.width, g.height, g.dpi = tpl.Width, tpl.Height, tpl.DPI
	g.index()
	attrs := g.attrs()
	for i, m := range ms {
		attrs[i] = uint16(m.Kind)<<8 | uint16(m.Quality)
	}
}

// index sizes the slab for g.pts — grid and attributes, or the
// attributes alone when layout finds no grid — and fills the grid; the
// caller fills the attributes.
func (g *Prepared) index() {
	n := len(g.pts)
	cells := g.layout()
	if cells == 0 {
		g.grid = grow(g.grid, n)
		return
	}
	g.grid = grow(g.grid, cells+1+2*n)
	start, items := g.grid[:cells+1], g.grid[cells+1:cells+1+n]
	clear(start)
	// Counting sort into CSR: count, prefix-sum, place (which shifts the
	// offsets one cell forward), then shift back.
	for _, pt := range g.pts {
		start[g.cellOf(pt)+1]++
	}
	for c := 1; c <= cells; c++ {
		start[c] += start[c-1]
	}
	for i, pt := range g.pts {
		c := g.cellOf(pt)
		items[start[c]] = uint16(i)
		start[c]++
	}
	copy(start[1:], start[:cells])
	start[0] = 0
}

// layout sets g's bounding box and grid shape from g.pts and returns
// the grid's cell count, 0 for a gridless preparation.
func (g *Prepared) layout() int {
	g.cols, g.rows = 0, 0
	pts := g.pts
	n := len(pts)
	if n == 0 {
		return 0
	}
	g.minX, g.maxX = pts[0].x, pts[0].x
	g.minY, g.maxY = pts[0].y, pts[0].y
	regular := true
	for _, pt := range pts {
		regular = regular && isFinite(pt.x) && isFinite(pt.y) && validAngle(pt.angle)
		if pt.x < g.minX {
			g.minX = pt.x
		}
		if pt.x > g.maxX {
			g.maxX = pt.x
		}
		if pt.y < g.minY {
			g.minY = pt.y
		}
		if pt.y > g.maxY {
			g.maxY = pt.y
		}
	}

	if !regular || n > math.MaxUint16 {
		// Non-finite coordinates (NaN slips through Template.Validate —
		// its comparisons are all false) cannot size a grid, angles
		// outside [0, 2π) would index the rotation tables out of range,
		// and the grid's offsets are 16 bits wide; leave the preparation
		// gridless and let the session fall back to the reference
		// matcher, which is total over arbitrary templates.
		return 0
	}

	// Cell sizes: the pairing tolerance diameter 2·distTol (the 2×2
	// coverage guarantee) or the axis's share of the cell budget,
	// whichever is wider, plus a hair: the margin keeps last-ulp rounding
	// of a cell coordinate from moving a minutia exactly distTol away out
	// of the block, and from adding a cell past the budget.
	dim := gridDim(n)
	cellX := max(2*distTol, (g.maxX-g.minX)/dim)
	cellY := max(2*distTol, (g.maxY-g.minY)/dim)
	cellX += cellX / 1024
	cellY += cellY / 1024
	if !isFinite(cellX) || !isFinite(cellY) {
		// A bounding box too wide for float64 (finite coordinates whose
		// span overflows): no usable grid; the session falls back to the
		// reference matcher.
		return 0
	}
	g.invCellX = 1 / cellX
	g.invCellY = 1 / cellY
	spanX := (g.maxX - g.minX) * g.invCellX
	spanY := (g.maxY - g.minY) * g.invCellY
	if !(spanX >= 0 && spanX < dim && spanY >= 0 && spanY < dim) {
		// Unreachable while 1/cell rounds sanely (the margin above puts
		// each span under dim); the bound is what keeps the slab small
		// and the conversions below defined, so it is checked rather than
		// assumed.
		return 0
	}
	cols, rows := int(spanX)+1, int(spanY)+1
	g.cols, g.rows = int32(cols), int32(rows)
	return cols * rows
}

// cellOf maps an in-bounds minutia position to its grid cell.
func (g *Prepared) cellOf(pt point) int {
	cx := int((pt.x - g.minX) * g.invCellX)
	cy := int((pt.y - g.minY) * g.invCellY)
	return cy*int(g.cols) + cx
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// grow returns s with length n, reallocating (and dropping the old
// contents) only when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
